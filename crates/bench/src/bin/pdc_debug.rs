//! Prints the PDC's raw numbers for one workflow at one cluster size.
//!
//! ```text
//! cargo run --release -p mashup-bench --bin pdc_debug -- SRAsearch 64
//! ```

#![expect(
    clippy::disallowed_macros,
    reason = "a debugging CLI: stdout is its entire user interface"
)]

use mashup_core::{MashupConfig, Pdc};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let name = args.first().map(String::as_str).unwrap_or("SRAsearch");
    let nodes: usize = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(48);
    let w = match name {
        "1000Genome" => mashup_workflows::genome1000::workflow(),
        "Epigenomics" => mashup_workflows::epigenomics::workflow(),
        _ => mashup_workflows::srasearch::workflow(),
    };
    let cfg = MashupConfig::aws(nodes);
    let pdc = Pdc::new(cfg).decide(&w);
    println!(
        "{} @ {} nodes  (subclusters={}, alpha={:.4}, beta={:.2}, store={:.2e} B/s)",
        w.name, nodes, pdc.subclusters, pdc.factors.alpha, pdc.factors.beta, pdc.factors.store_bps
    );
    for d in &pdc.decisions {
        println!(
            "  {:<18} C={:<5} T_vm={:>9.1}s  T_sl_est={:>9.1}s  probe={:>8.1}s  -> {}{}",
            d.name,
            d.components,
            d.t_vm_secs,
            d.t_serverless_est_secs,
            d.probe_secs,
            d.platform,
            d.forced_vm_reason
                .map(|r| format!("  [{r}]"))
                .unwrap_or_default()
        );
    }
}
