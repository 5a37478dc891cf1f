//! Diagnostic utility: prints the per-window statistical features of a
//! training run and the matching live run side by side — the tool used
//! to calibrate the E1 distribution shift (see DESIGN.md §4). Not a
//! paper artefact.

use ddoshield::experiments::{
    deploy_to_live, detection_scenario, run_training_capture, ExperimentScale,
};
use features::extract::windows_of;
use netsim::time::SimDuration;

fn summarize(name: &str, ds: &capture::Dataset) {
    let windows = windows_of(ds, 1);
    println!("== {name}: {} windows", windows.len());
    for w in windows.iter().take(60) {
        let s = &w.stats;
        println!(
            "w{:<4} n={:<6.0} mal={:<6} ent={:.2} srcent={:.2} top={:.2} syn0={:<5.0} flows={:<6.0} udp={:.2} len={:.0}",
            w.index,
            s.packet_count,
            w.records.iter().filter(|r| r.label == capture::Label::Malicious).count(),
            s.dst_port_entropy,
            s.src_addr_entropy,
            s.top_dst_port_fraction,
            s.syn_without_ack,
            s.flow_rate,
            s.udp_fraction,
            s.mean_pkt_len,
        );
    }
}

fn main() {
    let scale = ExperimentScale::quick();
    summarize("train", &run_training_capture(42, &scale));
    let scenario = detection_scenario(42, scale.live_secs, scale.epoch_offset_secs());
    let live =
        deploy_to_live(scenario, &scale).run_capture(SimDuration::from_secs(scale.live_secs));
    summarize("live", &live);
}
