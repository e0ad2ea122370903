//! Prints every deterministic paper figure (`lsbench_bench::figures`) and
//! saves its artifacts under `target/lsbench-results/`.
//!
//! ```sh
//! cargo bench --bench figures
//! ```

use lsbench_bench::figures::FIGURES;
use lsbench_core::report::write_artifact;

fn main() {
    for (_, figure) in FIGURES {
        let fig = figure();
        print!("{}", fig.text);
        for (name, contents) in &fig.artifacts {
            if let Err(e) = write_artifact(name, contents) {
                eprintln!("[warn] could not save {name}: {e}");
            }
        }
    }
}
