// expect: clean
//! Every rule suppressed by a justified escape: same-line allows,
//! preceding-line allows, and the file-scoped form. The analyzer must
//! honor all of them.

// This fixture's prints model a CLI surface; lint: allow-file(adhoc-telemetry)

use std::collections::HashMap; // keyed lookups only, never iterated; lint: allow(hash-collections)

pub fn justified_determinism_escapes() {
    // measuring the host, not the simulation; lint: allow(wall-clock)
    let t0 = std::time::Instant::now();
    // seeding an ephemeral shuffle for a demo; lint: allow(ambient-rng)
    let r = thread_rng().gen::<u64>();
    // single-threaded visualization scratch; lint: allow(no-rc)
    let scratch = Rc::new(Vec::<u64>::new());
    println!("demo {r} {:?} {}", t0.elapsed(), scratch.len());
    eprintln!("done");
}
