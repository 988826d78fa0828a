//! Driving the framework with Ccaffeine-style builder scripts and
//! observing it through its configuration events.
//!
//! ```text
//! cargo run --example builder_scripts
//! ```
//!
//! A builder script assembles a small pipeline from repository components,
//! re-wires it mid-run, and tears it down; a recording listener hears every
//! Configuration-API action, and the example asserts the exact sequence.

use cca::core::event::RecordingListener;
use cca::core::{CcaError, CcaServices, Component, ConfigEvent, PortHandle};
use cca::framework::Framework;
use cca::repository::{ComponentEntry, PortSpec, Repository};
use cca_data::TypeMap;
use std::sync::Arc;

trait NumberPort: Send + Sync {
    fn value(&self) -> f64;
}

struct ConstSource(f64);
impl NumberPort for ConstSource {
    fn value(&self) -> f64 {
        self.0
    }
}

struct SourceComponent(f64);
impl Component for SourceComponent {
    fn component_type(&self) -> &str {
        "pipeline.Source"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        let port: Arc<dyn NumberPort> = Arc::new(ConstSource(self.0));
        services.add_provides_port(PortHandle::new("out", "pipeline.Number", port))
    }
}

struct ReaderComponent;
impl Component for ReaderComponent {
    fn component_type(&self) -> &str {
        "pipeline.Reader"
    }
    fn set_services(&self, services: Arc<CcaServices>) -> Result<(), CcaError> {
        services.register_uses_port("in", "pipeline.Number", TypeMap::new())
    }
}

fn main() -> Result<(), CcaError> {
    // Repository with two sources (different constants) and a reader.
    let repo = Repository::new();
    for (class, v) in [("pipeline.SourceA", 1.0f64), ("pipeline.SourceB", 2.0)] {
        repo.register_component(ComponentEntry {
            class: class.into(),
            description: format!("constant source emitting {v}"),
            provides: vec![PortSpec::new("out", "pipeline.Number")],
            uses: vec![],
            properties: TypeMap::new(),
            factory: Arc::new(move || Arc::new(SourceComponent(v)) as Arc<dyn Component>),
        })
        .unwrap();
    }
    repo.register_component(ComponentEntry {
        class: "pipeline.Reader".into(),
        description: "reads a number port".into(),
        provides: vec![],
        uses: vec![PortSpec::new("in", "pipeline.Number")],
        properties: TypeMap::new(),
        factory: Arc::new(|| Arc::new(ReaderComponent) as Arc<dyn Component>),
    })
    .unwrap();

    let fw = Framework::new(repo);
    let recorder = RecordingListener::new();
    fw.add_listener(recorder.clone());

    let read = |fw: &Framework| -> f64 {
        let port: Arc<dyn NumberPort> = fw.services("reader0").unwrap().get_port_as("in").unwrap();
        port.value()
    };

    println!("-- phase 1: scripted assembly --");
    fw.run_script(
        "
        instantiate pipeline.SourceA sourceA
        instantiate pipeline.SourceB sourceB
        instantiate pipeline.Reader  reader0
        connect reader0 in sourceA out
        ",
    )?;
    println!("reader sees {}", read(&fw));
    assert_eq!(read(&fw), 1.0);

    println!("-- phase 2: scripted re-wiring --");
    fw.run_script("redirect reader0 in sourceA sourceB out")?;
    println!("reader sees {}", read(&fw));
    assert_eq!(read(&fw), 2.0);

    println!("-- phase 3: scripted teardown --");
    fw.run_script(
        "
        disconnect reader0 in sourceB
        remove sourceA
        remove sourceB
        remove reader0
        ",
    )?;

    println!("\nconfiguration events seen by the builder:");
    let events = recorder.events();
    for e in &events {
        println!("  {e:?}");
    }
    let s = |v: &str| v.to_string();
    let added = |instance: &str, class: &str| ConfigEvent::ComponentAdded {
        instance: s(instance),
        component_type: s(class),
    };
    let connected = |provider: &str| ConfigEvent::Connected {
        user: s("reader0"),
        uses_port: s("in"),
        provider: s(provider),
        provides_port: s("out"),
        port_type: s("pipeline.Number"),
    };
    let disconnected = |provider: &str| ConfigEvent::Disconnected {
        user: s("reader0"),
        uses_port: s("in"),
        provider: s(provider),
    };
    let removed = |instance: &str| ConfigEvent::ComponentRemoved {
        instance: s(instance),
    };
    let expected = vec![
        added("sourceA", "pipeline.Source"),
        added("sourceB", "pipeline.Source"),
        added("reader0", "pipeline.Reader"),
        connected("sourceA"),
        disconnected("sourceA"),
        connected("sourceB"),
        ConfigEvent::Redirected {
            user: s("reader0"),
            uses_port: s("in"),
            old_provider: s("sourceA"),
            new_provider: s("sourceB"),
        },
        disconnected("sourceB"),
        removed("sourceA"),
        removed("sourceB"),
        removed("reader0"),
    ];
    assert_eq!(events, expected);
    println!("all {} events in the expected order", expected.len());
    Ok(())
}
