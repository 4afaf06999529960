//! The reading formula as written before the sampling kernel, one sensor
//! at a time: every term (inlet, utilization, diurnal phase) recomputed
//! for each reading. Tests hold [`NodeSampler`](super::NodeSampler) to it
//! bit for bit.

use astra_logs::SensorRecord;
use astra_topology::{NodeId, RackRegion, SensorId, SensorKind};
use astra_util::Minute;

use super::{unit, TelemetryModel};

fn utilization(m: &TelemetryModel, node: NodeId, t: Minute) -> f64 {
    let p = &m.profile;
    let block = t.value().div_euclid(p.job_block_minutes as i64) as u64;
    let h = m.hash(1, u64::from(node.0), block);
    let busy = unit(h) < p.busy_prob;
    let base = if busy {
        p.busy_util + 0.1 * (unit(m.hash(2, u64::from(node.0), block)) - 0.5)
    } else {
        p.idle_util
    };
    let phase = f64::from(t.minute_of_day()) / 1440.0 * std::f64::consts::TAU;
    let diurnal = p.diurnal_amplitude * (phase - std::f64::consts::PI * 0.75).sin();
    (base + diurnal).clamp(0.0, 1.0)
}

fn inlet(m: &TelemetryModel, node: NodeId) -> f64 {
    let p = &m.profile;
    let rack = m.system.rack_of(node);
    let rack_off = (unit(m.hash(3, u64::from(rack.0), 0)) - 0.5) * p.rack_inlet_spread;
    let region = m.system.region_of(node);
    let region_off = match region {
        RackRegion::Bottom => -0.5,
        RackRegion::Middle => 0.0,
        RackRegion::Top => 0.5,
    } * p.region_inlet_spread;
    p.inlet_temp + rack_off + region_off
}

pub(super) fn true_value(m: &TelemetryModel, node: NodeId, sensor: SensorId, t: Minute) -> f64 {
    let p = &m.profile;
    let util = utilization(m, node, t);
    let inlet = inlet(m, node);
    let noise = m.noise(
        4 + sensor.index() as u64,
        u64::from(node.0),
        t.value() as u64,
    );
    match sensor.kind() {
        SensorKind::CpuTemp(socket) => {
            inlet
                + p.cpu_idle_rise[usize::from(socket.0)]
                + p.cpu_util_rise * util
                + p.cpu_noise_sd * noise
        }
        SensorKind::DimmTemp(group) => {
            inlet
                + p.dimm_idle_rise[group.index()]
                + p.dimm_util_rise * util
                + p.dimm_noise_sd * noise
        }
        SensorKind::DcPower => p.idle_power + p.dynamic_power * util + p.power_noise_sd * noise,
    }
}

pub(super) fn reading(
    m: &TelemetryModel,
    node: NodeId,
    sensor: SensorId,
    t: Minute,
) -> SensorRecord {
    let p = &m.profile;
    let h = m.hash(
        99,
        u64::from(node.0) << 3 | sensor.index() as u64,
        t.value() as u64,
    );
    let u = unit(h);
    let value = if u < p.unreadable_prob {
        None
    } else if u < p.unreadable_prob + p.invalid_prob {
        Some(if sensor.kind() == SensorKind::DcPower {
            4000.0
        } else {
            255.0
        })
    } else {
        Some(true_value(m, node, sensor, t))
    };
    SensorRecord {
        time: t,
        node,
        sensor,
        value,
    }
}
