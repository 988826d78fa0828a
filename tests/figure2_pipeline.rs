//! F2 — Figure 2's element relationships, run end-to-end:
//!
//! SIDL source → repository deposit → repository query → proxy generation
//! → component instantiation → builder wiring through CCA Services →
//! running the assembled application.

use cca::core::{CcaError, CcaServices, Component, GoPort, PortHandle};
use cca::framework::Framework;
use cca::repository::{ComponentEntry, PortSpec, Query, Repository};
use cca::sidl::Reflection;
use cca_data::TypeMap;
use parking_lot::Mutex;
use std::sync::Arc;

const SIDL: &str = r#"
package pipes version 1.0 {
    /** Produces numbers. */
    interface Source { double next(); }
    /** Consumes numbers; returns the running total. */
    interface Sink { double push(in double value); }
    class RampSource implements-all Source { }
    class SummingSink implements-all Sink { }
}
"#;

trait SourcePort: Send + Sync {
    fn next(&self) -> f64;
}
trait SinkPort: Send + Sync {
    fn push(&self, value: f64) -> f64;
}

struct RampSource {
    state: Mutex<f64>,
}
impl SourcePort for RampSource {
    fn next(&self) -> f64 {
        let mut s = self.state.lock();
        *s += 1.0;
        *s
    }
}
impl Component for RampSource {
    fn component_type(&self) -> &str {
        "pipes.RampSource"
    }
    fn set_services(&self, _services: Arc<CcaServices>) -> Result<(), CcaError> {
        Ok(())
    }
}

struct SummingSink {
    total: Mutex<f64>,
}
impl SinkPort for SummingSink {
    fn push(&self, value: f64) -> f64 {
        let mut t = self.total.lock();
        *t += value;
        *t
    }
}
impl Component for SummingSink {
    fn component_type(&self) -> &str {
        "pipes.SummingSink"
    }
    fn set_services(&self, _services: Arc<CcaServices>) -> Result<(), CcaError> {
        Ok(())
    }
}

/// The driver: uses both ports, pumps `n` values on `go`.
struct Pump {
    n: usize,
    services: Mutex<Option<Arc<CcaServices>>>,
    last_total: Mutex<f64>,
}
impl Component for Pump {
    fn component_type(&self) -> &str {
        "pipes.Pump"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("from", "pipes.Source", TypeMap::new())?;
        services.register_uses_port("to", "pipes.Sink", TypeMap::new())?;
        *self.services.lock() = Some(services);
        Ok(())
    }
}
impl GoPort for Pump {
    fn go(&self) -> Result<(), CcaError> {
        let services = self.services.lock().clone().expect("wired");
        let source: Arc<dyn SourcePort> = services.get_port_as("from")?;
        let sink: Arc<dyn SinkPort> = services.get_port_as("to")?;
        let mut total = 0.0;
        for _ in 0..self.n {
            total = sink.push(source.next());
        }
        *self.last_total.lock() = total;
        Ok(())
    }
}

fn build_repository() -> Arc<Repository> {
    let repo = Repository::new();
    // (a) deposit the SIDL definitions.
    repo.deposit_sidl(SIDL).unwrap();
    // (b) register instantiable components whose advertised ports match.
    repo.register_component(ComponentEntry {
        class: "pipes.RampSource".into(),
        description: "counts upward from zero".into(),
        provides: vec![PortSpec::new("out", "pipes.Source")],
        uses: vec![],
        properties: TypeMap::new(),
        factory: Arc::new(|| {
            Arc::new(RampSource {
                state: Mutex::new(0.0),
            }) as Arc<dyn Component>
        }),
    })
    .unwrap();
    repo.register_component(ComponentEntry {
        class: "pipes.SummingSink".into(),
        description: "accumulates everything pushed into it".into(),
        provides: vec![PortSpec::new("in", "pipes.Sink")],
        uses: vec![],
        properties: TypeMap::new(),
        factory: Arc::new(|| {
            Arc::new(SummingSink {
                total: Mutex::new(0.0),
            }) as Arc<dyn Component>
        }),
    })
    .unwrap();
    repo
}

#[test]
fn full_figure2_pipeline() {
    let repo = build_repository();

    // Repository query: find a provider of pipes.Source (the builder's
    // "what can I connect here?" question).
    let sources = repo.search(&Query::any().providing("pipes.Source"));
    assert_eq!(sources.len(), 1);
    assert_eq!(sources[0].class, "pipes.RampSource");

    // Proxy generation from the deposited SIDL (Figure 2's proxy
    // generator consuming repository definitions).
    let generated = repo.with_catalog(|cat| {
        let source = cat.source_of("pipes").unwrap();
        let model = cca::sidl::compile(source).unwrap();
        cca::sidl::codegen_rust::generate_rust(&model)
    });
    assert!(generated.contains("pub trait Source"));
    assert!(generated.contains("pub struct SinkStub"));

    // Reflection is queryable without compile-time knowledge.
    let reflection = repo.with_catalog(|cat| {
        Reflection::from_model(&cca::sidl::compile(cat.source_of("pipes").unwrap()).unwrap())
    });
    assert!(reflection
        .type_info("pipes.Sink")
        .unwrap()
        .method("push")
        .is_some());

    // Builder: instantiate from the repository, add provides ports the
    // components expose, wire, run.
    let fw = Framework::new(repo);
    fw.create_instance("source0", "pipes.RampSource").unwrap();
    fw.create_instance("sink0", "pipes.SummingSink").unwrap();
    let pump = Arc::new(Pump {
        n: 10,
        services: Mutex::new(None),
        last_total: Mutex::new(0.0),
    });
    fw.add_instance("pump0", pump.clone()).unwrap();

    // The repository-created instances register their ports here (ad-hoc
    // registration since the factories return type-erased components).
    let source_impl: Arc<dyn SourcePort> = Arc::new(RampSource {
        state: Mutex::new(0.0),
    });
    fw.services("source0")
        .unwrap()
        .add_provides_port(PortHandle::new("out", "pipes.Source", source_impl))
        .unwrap();
    let sink_impl: Arc<dyn SinkPort> = Arc::new(SummingSink {
        total: Mutex::new(0.0),
    });
    fw.services("sink0")
        .unwrap()
        .add_provides_port(PortHandle::new("in", "pipes.Sink", sink_impl))
        .unwrap();
    let go: Arc<dyn GoPort> = pump.clone();
    fw.services("pump0")
        .unwrap()
        .add_provides_port(PortHandle::new(
            "go",
            cca::core::component::GO_PORT_TYPE,
            go,
        ))
        .unwrap();

    fw.connect("pump0", "from", "source0", "out").unwrap();
    fw.connect("pump0", "to", "sink0", "in").unwrap();
    fw.run_go("pump0", "go").unwrap();

    // 1+2+...+10 = 55.
    assert_eq!(*pump.last_total.lock(), 55.0);
}

#[test]
fn repository_query_with_subtyping_across_the_pipeline() {
    let repo = build_repository();
    // pipes.RampSource is-a pipes.Source by the deposited SIDL.
    assert!(repo.is_subtype_of("pipes.RampSource", "pipes.Source"));
    assert!(!repo.is_subtype_of("pipes.Source", "pipes.RampSource"));
    // Free-text search.
    let found = repo.search(&Query::any().with_text("accumulates"));
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].class, "pipes.SummingSink");
}
