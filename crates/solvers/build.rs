//! Runs the cca-sidl proxy generator over `sidl/esi.sidl` and writes the
//! `esi` package's traits, stubs and skeletons to `OUT_DIR/esi.rs`, which
//! `src/esi.rs` includes.

use std::env;
use std::fs;
use std::path::PathBuf;

fn main() {
    println!("cargo:rerun-if-changed=sidl/esi.sidl");
    let source = fs::read_to_string("sidl/esi.sidl").expect("sidl/esi.sidl readable");
    let model = cca_sidl::compile(&source).unwrap_or_else(|e| panic!("esi.sidl: {e}"));
    let out = PathBuf::from(env::var("OUT_DIR").expect("OUT_DIR set")).join("esi.rs");
    fs::write(out, cca_sidl::codegen_rust::generate_rust(&model)).expect("write generated rust");
}
