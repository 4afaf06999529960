//! One driver per paper table/figure.
//!
//! Each submodule computes the data behind one exhibit of the paper's
//! evaluation and renders it as the rows/series the paper reports.
//! `astra-mem report` prints every one, each block headed `Table 1:` or
//! `Fig N:`; `EXPERIMENTS.md` records paper-vs-measured values for every
//! one.
//!
//! | Module       | Paper exhibit                                             |
//! |--------------|-----------------------------------------------------------|
//! | [`table1`]   | Table 1 — component replacements                          |
//! | [`fig2`]     | Fig 2 — sensor value distributions                        |
//! | [`fig3`]     | Fig 3 — daily replacement series                          |
//! | [`fig4`]     | Fig 4 — error/fault-mode series and errors-per-fault      |
//! | [`fig5`]     | Fig 5 — per-node fault counts and CE concentration        |
//! | [`fig6`]     | Fig 6 — socket/bank/column errors vs faults               |
//! | [`fig7`]     | Fig 7 — rank and DIMM-slot errors vs faults               |
//! | [`fig8`]     | Fig 8 — faults per bit position / physical address        |
//! | [`fig9`]     | Fig 9 — pre-error temperature windows                     |
//! | [`fig10_12`] | Figs 10–12 — rack-region and rack positional effects      |
//! | [`fig13_14`] | Figs 13–14 — temperature deciles and hot/cold power split |
//! | [`fig15`]    | Fig 15 — HET events and the FIT computation               |

/// Instrument one figure driver: bump `experiments.<figure>.computed` and
/// time the body under `time.experiments.<figure>`. Every `compute` entry
/// point opens with this, so a `--metrics-out` export shows exactly which
/// exhibits a run produced and what each cost.
pub(crate) fn figure_span(figure: &str) -> astra_obs::SpanGuard<'static> {
    astra_obs::global()
        .counter(&format!("experiments.{figure}.computed"))
        .inc();
    astra_obs::span(&format!("experiments.{figure}"))
}

pub mod fig10_12;
pub mod fig13_14;
pub mod fig15;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fig9;
pub mod render;
pub mod table1;
pub mod verdicts;
