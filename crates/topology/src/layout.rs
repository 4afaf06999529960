//! Sensor placement and airflow layout.
//!
//! Each Astra node carries six sensors (§2.2): one CPU temperature sensor
//! per socket and two DIMM temperature sensors per socket, each DIMM sensor
//! covering a group of four slots:
//!
//! * `A,C,E,G` — socket 0, group 0
//! * `H,F,D,B` — socket 0, group 1
//! * `I,K,M,O` — socket 1, group 0
//! * `J,L,N,P` — socket 1, group 1
//!
//! A seventh per-node sensor reports DC power draw.
//!
//! Cooling flows **front to back** (Figure 1): cool air crosses socket 1
//! ("CPU2") and its DIMMs first, then reaches socket 0 ("CPU1") pre-warmed.
//! [`airflow_position`] encodes that order as a 0.0–1.0 coordinate used by
//! the thermal model — larger means further downstream, i.e. hotter.

use crate::ids::{DimmSlot, SocketId};

/// One of the four DIMM sensor groups on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DimmGroup(u8);

impl DimmGroup {
    /// All four groups in sensor-index order.
    pub const ALL: [DimmGroup; 4] = [DimmGroup(0), DimmGroup(1), DimmGroup(2), DimmGroup(3)];

    /// Construct from a group index 0–3.
    pub fn from_index(idx: u8) -> Option<Self> {
        (idx < 4).then_some(DimmGroup(idx))
    }

    /// Group index 0–3.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// The group covering a DIMM slot.
    pub fn of_slot(slot: DimmSlot) -> Self {
        // A,C,E,G -> 0; B,D,F,H -> 1; I,K,M,O -> 2; J,L,N,P -> 3.
        let idx = slot.index() as u8;
        DimmGroup((idx / 8) * 2 + (idx % 2))
    }

    /// The socket whose channels this group serves.
    pub fn socket(self) -> SocketId {
        SocketId(self.0 / 2)
    }

    /// The four slots covered by this group, in letter order.
    pub fn slots(self) -> [DimmSlot; 4] {
        let base = (self.0 / 2) * 8 + (self.0 % 2);
        [
            DimmSlot::from_index(base).unwrap(),
            DimmSlot::from_index(base + 2).unwrap(),
            DimmSlot::from_index(base + 4).unwrap(),
            DimmSlot::from_index(base + 6).unwrap(),
        ]
    }

    /// Label used in figure legends, e.g. `"DIMMs A,C,E,G"`.
    pub fn label(self) -> String {
        let letters: Vec<String> = self
            .slots()
            .iter()
            .map(|s| s.letter().to_string())
            .collect();
        format!("DIMMs {}", letters.join(","))
    }

    /// Label used in the Fig 14 panels, e.g. `"CPU1 DIMMs 1-4"`.
    pub fn panel_label(self) -> String {
        let half = if self.0.is_multiple_of(2) {
            "1-4"
        } else {
            "5-8"
        };
        format!("{} DIMMs {}", self.socket().cpu_label(), half)
    }
}

/// Kind of per-node sensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SensorKind {
    /// CPU temperature sensor for a socket.
    CpuTemp(SocketId),
    /// DIMM-group temperature sensor.
    DimmTemp(DimmGroup),
    /// Node DC power draw sensor.
    DcPower,
}

/// A sensor identified by a dense per-node index:
/// 0–1 CPU temps, 2–5 DIMM group temps, 6 DC power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SensorId(u8);

impl SensorId {
    /// Sensors per node (6 temperature + 1 power).
    pub const COUNT: usize = 7;

    /// Construct from a dense index.
    pub fn from_index(idx: u8) -> Option<Self> {
        (idx < Self::COUNT as u8).then_some(SensorId(idx))
    }

    /// Dense per-node index 0–6.
    pub fn index(self) -> usize {
        usize::from(self.0)
    }

    /// What this sensor measures.
    pub fn kind(self) -> SensorKind {
        match self.0 {
            0 => SensorKind::CpuTemp(SocketId(0)),
            1 => SensorKind::CpuTemp(SocketId(1)),
            2..=5 => SensorKind::DimmTemp(DimmGroup(self.0 - 2)),
            _ => SensorKind::DcPower,
        }
    }

    /// The sensor for a socket's CPU temperature.
    pub fn cpu(socket: SocketId) -> Self {
        SensorId(socket.0)
    }

    /// The sensor covering a DIMM group.
    pub fn dimm_group(group: DimmGroup) -> Self {
        SensorId(2 + group.0)
    }

    /// The sensor covering a DIMM slot's temperature.
    pub fn for_slot(slot: DimmSlot) -> Self {
        Self::dimm_group(DimmGroup::of_slot(slot))
    }

    /// The node DC power sensor.
    pub fn dc_power() -> Self {
        SensorId(6)
    }

    /// All sensors in index order.
    pub fn all() -> impl Iterator<Item = SensorId> {
        (0..Self::COUNT as u8).map(SensorId)
    }

    /// Short name used in telemetry records, e.g. `cpu0`, `dimmg2`, `power`.
    pub fn name(self) -> String {
        match self.kind() {
            SensorKind::CpuTemp(s) => format!("cpu{}", s.0),
            SensorKind::DimmTemp(g) => format!("dimmg{}", g.index()),
            SensorKind::DcPower => "power".to_string(),
        }
    }

    /// Parse the format produced by [`SensorId::name`] (the group
    /// number as `u8::from_str` reads it).
    pub fn parse_name(s: impl AsRef<[u8]>) -> Option<Self> {
        match s.as_ref() {
            b"cpu0" => Some(SensorId(0)),
            b"cpu1" => Some(SensorId(1)),
            b"power" => Some(SensorId(6)),
            s => {
                let g: u8 = astra_util::ascii::dec_uint(s.strip_prefix(b"dimmg")?)?;
                (g < 4).then(|| SensorId(2 + g))
            }
        }
    }
}

/// Airflow coordinate of a socket: 0.0 = front (coolest), 1.0 = back
/// (hottest). Socket 1 ("CPU2") is upstream per Figure 1.
pub fn airflow_position(socket: SocketId) -> f64 {
    match socket.0 {
        1 => 0.25,
        _ => 0.75,
    }
}

/// Airflow coordinate of a DIMM group. Groups inherit their socket's
/// position with a small offset distinguishing the two groups per socket —
/// the downstream group of each socket sits slightly hotter, which is what
/// produces the per-slot fault skew the paper observes (slots J, E, I, P
/// high; A, K, L, M, N low are *not* purely thermal in the paper, so the
/// offsets here are deliberately small).
pub fn group_airflow_position(group: DimmGroup) -> f64 {
    let base = airflow_position(group.socket());
    base + if group.index().is_multiple_of(2) {
        -0.05
    } else {
        0.05
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_cover_expected_slots() {
        let letters = |g: DimmGroup| -> String { g.slots().iter().map(|s| s.letter()).collect() };
        assert_eq!(letters(DimmGroup(0)), "ACEG");
        assert_eq!(letters(DimmGroup(1)), "BDFH");
        assert_eq!(letters(DimmGroup(2)), "IKMO");
        assert_eq!(letters(DimmGroup(3)), "JLNP");
    }

    #[test]
    fn of_slot_inverts_slots() {
        for g in DimmGroup::ALL {
            for slot in g.slots() {
                assert_eq!(DimmGroup::of_slot(slot), g);
            }
        }
    }

    #[test]
    fn group_sockets() {
        assert_eq!(DimmGroup(0).socket(), SocketId(0));
        assert_eq!(DimmGroup(1).socket(), SocketId(0));
        assert_eq!(DimmGroup(2).socket(), SocketId(1));
        assert_eq!(DimmGroup(3).socket(), SocketId(1));
    }

    #[test]
    fn sensor_indices_roundtrip() {
        for s in SensorId::all() {
            assert_eq!(SensorId::from_index(s.index() as u8), Some(s));
            assert_eq!(SensorId::parse_name(s.name()), Some(s));
        }
        assert_eq!(SensorId::from_index(7), None);
        assert_eq!(SensorId::parse_name("dimmg4"), None);
        assert_eq!(SensorId::parse_name("bogus"), None);
        // The group number follows `u8::from_str`.
        assert_eq!(SensorId::parse_name("dimmg+02"), SensorId::from_index(4));
        assert_eq!(SensorId::parse_name("dimmg"), None);
        assert_eq!(SensorId::parse_name("dimmg256"), None);
    }

    #[test]
    fn sensor_kinds() {
        assert_eq!(
            SensorId::cpu(SocketId(1)).kind(),
            SensorKind::CpuTemp(SocketId(1))
        );
        assert_eq!(SensorId::dc_power().kind(), SensorKind::DcPower);
        let slot_j = DimmSlot::from_letter('J').unwrap();
        assert_eq!(
            SensorId::for_slot(slot_j).kind(),
            SensorKind::DimmTemp(DimmGroup(3))
        );
    }

    #[test]
    fn airflow_cpu2_is_upstream() {
        assert!(airflow_position(SocketId(1)) < airflow_position(SocketId(0)));
    }

    #[test]
    fn group_airflow_within_unit_interval() {
        for g in DimmGroup::ALL {
            let p = group_airflow_position(g);
            assert!((0.0..=1.0).contains(&p), "{p}");
        }
    }

    #[test]
    fn labels() {
        assert_eq!(DimmGroup(0).label(), "DIMMs A,C,E,G");
        assert_eq!(DimmGroup(3).label(), "DIMMs J,L,N,P");
        assert_eq!(DimmGroup(0).panel_label(), "CPU1 DIMMs 1-4");
        assert_eq!(DimmGroup(3).panel_label(), "CPU2 DIMMs 5-8");
    }
}
