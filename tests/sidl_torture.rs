//! SIDL toolchain torture test: one large, gnarly source pushed through
//! every stage — parse → check → reflect → pretty-print → re-parse →
//! Rust/C/F77 codegen — asserting cross-stage consistency.

use cca::sidl::codegen_c::generate_c_header;
use cca::sidl::codegen_f77::generate_f77;
use cca::sidl::codegen_rust::generate_rust;
use cca::sidl::fmt::print_packages;
use cca::sidl::{QName, Reflection, TypeKind};

const TORTURE: &str = r#"
/** Base numerics vocabulary. */
package num version 0.9 {
    interface Object { string typeName(); }

    enum Norm { One, Two, Infinity = 99, Frobenius }

    /** Every SIDL primitive in one interface. */
    interface Kitchen extends Object {
        bool flag(in bool b);
        char letter(in char c);
        int small(in int i);
        long big(in long l);
        float single(in float f);
        double wide(in double d);
        fcomplex fz(in fcomplex z);
        dcomplex dz(in dcomplex z);
        string text(in string s);
        opaque handle(in opaque h);
        array<double> anyRank(in array<double> a);
        array<dcomplex, 7> maxRank(in array<dcomplex, 7> a);
        void everything(in int a, out double b, inout string c) throws num.Failure;
    }

    class Failure { string message(); }
}

package linalg version 2.0 {
    interface Vector extends num.Object {
        double dot(in Vector other);
    }
    interface Matrix extends num.Object {
        array<double, 1> multiply(in array<double, 1> x);
    }
    /** Diamond: both sides extend num.Object. */
    interface Factorizable extends Matrix, Vector {
        void factor();
    }
    abstract class Base implements-all num.Object { }
    class Dense extends Base implements-all Factorizable {
        static long allocated();
        final void compact();
    }
}
"#;

#[test]
fn full_pipeline_is_consistent() {
    // Parse + check.
    let packages = cca::sidl::parse(TORTURE).unwrap();
    assert_eq!(packages.len(), 2);
    let model = cca::sidl::check(&packages).unwrap();

    // Reflection agrees with the model.
    let reflection = Reflection::from_model(&model);
    assert_eq!(reflection.len(), 9);
    let dense = reflection.type_info("linalg.Dense").unwrap();
    assert_eq!(dense.kind, TypeKind::Class);
    // Dense sees: typeName, dot, multiply, factor, allocated, compact.
    let names: Vec<&str> = dense.methods.iter().map(|m| m.name.as_str()).collect();
    for expect in [
        "typeName",
        "dot",
        "multiply",
        "factor",
        "allocated",
        "compact",
    ] {
        assert!(names.contains(&expect), "missing {expect} in {names:?}");
    }
    // typeName appears exactly once despite three inheritance paths.
    assert_eq!(names.iter().filter(|n| **n == "typeName").count(), 1);

    // Subtyping across packages and the diamond.
    let q = QName::parse;
    assert!(model.is_subtype_of(&q("linalg.Dense"), &q("num.Object")));
    assert!(model.is_subtype_of(&q("linalg.Factorizable"), &q("linalg.Vector")));
    assert!(model.is_subtype_of(&q("linalg.Factorizable"), &q("linalg.Matrix")));
    assert!(!model.is_subtype_of(&q("num.Kitchen"), &q("linalg.Vector")));

    // Pretty-print canonical form re-parses to the same canonical form.
    let printed = print_packages(&packages);
    let reparsed = cca::sidl::parse(&printed).unwrap();
    assert_eq!(printed, print_packages(&reparsed));
    let remodel = cca::sidl::check(&reparsed).unwrap();
    assert_eq!(
        Reflection::from_model(&remodel).len(),
        reflection.len(),
        "canonical round trip must preserve the type catalog"
    );

    // Rust backend output is structurally sane.
    let rust = generate_rust(&model);
    assert!(rust.contains("pub mod num {"));
    assert!(rust.contains("pub mod linalg {"));
    assert!(rust.contains("pub trait Kitchen: Object + Send + Sync {"));
    assert!(rust.contains("pub trait Factorizable: Matrix + Vector + Send + Sync {"));
    assert!(rust.contains("fn dz(&self, z: Complex64) -> Result<Complex64, SidlError>;"));
    assert!(rust.contains("pub struct DenseSkel<T: Dense>(pub T);"));
    assert_eq!(rust.matches('{').count(), rust.matches('}').count());

    // C backend: IOR shape, balanced braces, complex typedefs used.
    let header = generate_c_header(&model, "TORTURE_H");
    assert!(header.contains("struct linalg_Dense__epv"));
    assert!(header.contains("sidl_fcomplex (*f_fz)"));
    assert!(header.contains("num_Norm_Infinity = 99"));
    assert_eq!(header.matches('{').count(), header.matches('}').count());

    // F77 backend: fixed form, handles, out-params.
    let f77 = generate_f77(&model);
    assert!(f77.contains("EXTERNAL linalg_Dense_dot_f"));
    assert!(f77.contains("b (DOUBLE PRECISION, out)"));
    for line in f77.lines() {
        assert!(
            line.is_empty() || line.starts_with('C') || line.starts_with("      "),
            "bad fixed-form line: {line:?}"
        );
    }
}

#[test]
fn torture_source_survives_repository_deposit() {
    let repo = cca::repository::Repository::new();
    let types = repo.deposit_sidl(TORTURE).unwrap();
    assert_eq!(types.len(), 9);
    assert!(repo.is_subtype_of("linalg.Dense", "num.Object"));
    // Retrieve canonical source of each package and recompile.
    repo.with_catalog(|cat| {
        for pkg in ["num", "linalg"] {
            let _ = pkg;
        }
        let combined = format!(
            "{}\n{}",
            cat.source_of("num").unwrap(),
            cat.source_of("linalg").unwrap()
        );
        assert!(cca::sidl::compile(&combined).is_ok());
    });
}
