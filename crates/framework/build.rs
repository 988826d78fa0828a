//! Runs the cca-sidl proxy generator over the framework's `cca.ports`
//! interfaces (one `.sidl` file each, so installing one port deposits
//! only its own interface) and writes their traits, stubs and skeletons
//! to `OUT_DIR/cca_ports.rs`, which `src/lib.rs` re-exports as `ports`.

use std::env;
use std::fs;
use std::path::PathBuf;

const FILES: [&str; 2] = ["sidl/monitor.sidl", "sidl/discovery.sidl"];

fn main() {
    let mut source = String::new();
    for file in FILES {
        println!("cargo:rerun-if-changed={file}");
        source += &fs::read_to_string(file).unwrap_or_else(|e| panic!("{file}: {e}"));
    }
    let model = cca_sidl::compile(&source).unwrap_or_else(|e| panic!("cca.ports: {e}"));
    let out = PathBuf::from(env::var("OUT_DIR").expect("OUT_DIR set")).join("cca_ports.rs");
    fs::write(out, cca_sidl::codegen_rust::generate_rust(&model)).expect("write generated rust");
}
