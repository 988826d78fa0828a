//! Build script of the umbrella crate: runs the cca-sidl proxy generator
//! over `sidl/demo.sidl` (Figure 2's "SIDL definitions -> proxy generator
//! -> component stubs" pipeline) and writes the generated Rust bindings and
//! C header into OUT_DIR, where `src/generated.rs` includes them.

use std::env;
use std::fs;
use std::path::PathBuf;

fn main() {
    println!("cargo:rerun-if-changed=sidl/demo.sidl");
    let source = fs::read_to_string("sidl/demo.sidl").expect("sidl/demo.sidl readable");
    let model = cca_sidl::compile(&source).unwrap_or_else(|e| panic!("demo.sidl: {e}"));
    let rust = cca_sidl::codegen_rust::generate_rust(&model);
    let header = cca_sidl::codegen_c::generate_c_header(&model, "CCA_DEMO_H");
    let out_dir = PathBuf::from(env::var("OUT_DIR").expect("OUT_DIR set"));
    fs::write(out_dir.join("demo_generated.rs"), rust).expect("write generated rust");
    fs::write(out_dir.join("demo_generated.h"), header).expect("write generated header");
}
