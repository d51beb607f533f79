//! Supernodes (Theorem 18): the population organizes into `2^j` named
//! lines of `j` nodes — enough local memory for each supernode to know
//! its own binary name — and the names then drive a higher-level
//! construction (here: pairing supernodes by name, the paper's
//! "connect id i to id i±1" idea).
//!
//! ```sh
//! cargo run --release --example supernode_names
//! ```

use netcon::core::Simulation;
use netcon::universal::supernodes::{is_stable, supernodes_of, Supernodes};

fn main() {
    let j = 3u32; // phase: 8 supernodes of 3 nodes each
    let n = 1 + (j as usize) * (1 << j); // leader + j·2^j members
    println!(
        "population: {n} nodes → 2^{j} = {} supernodes of {j} nodes\n",
        1 << j
    );

    let mut sim = Simulation::new(Supernodes, n, 42);
    let outcome = sim.run_until(is_stable, u64::MAX);
    println!(
        "stabilized after {} interactions",
        outcome.last_effective().expect("organizer stabilizes")
    );

    let mut sns = supernodes_of(sim.population(), j as u16);
    sns.sort_by_key(|s| s.name);
    for sn in &sns {
        let bits: String = (0..j)
            .map(|p| if sn.name >> p & 1 == 1 { '1' } else { '0' })
            .collect();
        println!(
            "supernode {:>2}  name bits (lsb first) {}  members {:?}",
            sn.name, bits, sn.members
        );
    }

    // The names make higher-level coordination trivial: pair supernode
    // 2i with 2i+1 (each pair could now act as one 2log k-memory unit).
    println!("\npairing by name: ");
    for pair in sns.chunks(2) {
        if let [a, b] = pair {
            println!("  supernode {} ↔ supernode {}", a.name, b.name);
        }
    }
}
