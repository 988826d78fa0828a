//! The SIDL toolchain as a command-line tool.
//!
//! ```text
//! cargo run --example sidl_compiler            # compiles the solvers' esi.sidl
//! cargo run --example sidl_compiler -- my.sidl # compiles your file
//! ```
//!
//! Parses, checks, and reports on a SIDL source: the type catalog, the
//! flattened method sets with inheritance provenance, then emits the Rust
//! bindings and the Babel-IOR-style C header (Figure 2's proxy generator).

use cca::sidl::codegen_c::generate_c_header;
use cca::sidl::codegen_rust::generate_rust;
use cca::sidl::fmt::print_packages;
use cca::sidl::{Reflection, TypeKind};
use std::env;
use std::fs;

fn main() {
    let args: Vec<String> = env::args().collect();
    let (name, source) = match args.get(1) {
        Some(path) => (
            path.clone(),
            fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("cannot read {path}: {e}");
                std::process::exit(1);
            }),
        ),
        None => (
            "crates/solvers/sidl/esi.sidl (built-in)".to_string(),
            cca::solvers::esi::ESI_SIDL.to_string(),
        ),
    };

    println!("== compiling {name} ==");
    let packages = match cca::sidl::parse(&source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let model = match cca::sidl::check(&packages) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    println!("\n-- canonical form ------------------------------------------");
    println!("{}", print_packages(&packages));

    println!("-- type catalog ---------------------------------------------");
    let reflection = Reflection::from_model(&model);
    for info in reflection.types() {
        let kind = match info.kind {
            TypeKind::Interface => "interface",
            TypeKind::Class => {
                if info.is_abstract {
                    "abstract class"
                } else {
                    "class"
                }
            }
            TypeKind::Enum => "enum",
        };
        println!("{kind:<15} {}", info.qname);
        if info.kind == TypeKind::Enum {
            for (v, value) in &info.variants {
                println!("                  {v} = {value}");
            }
            continue;
        }
        if !info.bases.is_empty() {
            println!("                  is-a: {}", info.bases.join(", "));
        }
        for m in &info.methods {
            let args: Vec<String> = m
                .args
                .iter()
                .map(|(mode, ty, n)| format!("{mode} {ty:?} {n}"))
                .collect();
            let inherited = if m.declared_in == info.qname {
                String::new()
            } else {
                format!("   [from {}]", m.declared_in)
            };
            println!(
                "                  {:?} {}({}){inherited}",
                m.ret,
                m.name,
                args.join(", ")
            );
        }
    }

    println!("\n-- generated Rust bindings (first 40 lines) ------------------");
    let rust = generate_rust(&model);
    for line in rust.lines().take(40) {
        println!("{line}");
    }
    println!("... ({} lines total)", rust.lines().count());

    println!("\n-- generated C header (first 40 lines) -----------------------");
    let header = generate_c_header(&model, "GENERATED_SIDL_H");
    for line in header.lines().take(40) {
        println!("{line}");
    }
    println!("... ({} lines total)", header.lines().count());
}
