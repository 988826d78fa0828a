//! The remote discovery plane: the repository's search API as a
//! reflective port any framework can dial over the wire.
//!
//! Figure 2's repository is only useful if other frameworks can *search*
//! it — "the functionality necessary to search a framework repository
//! for components" (§4). The discovery port puts exactly that on the
//! network: exact class lookup, trigram fuzzy search with scored paged
//! results (a [`cca_repository::QueryCursor`] rides the wire as an
//! opaque string), and the catalog's scale statistics, all through
//! dynamic invocation over the same `tcp`/`tcp+mux` transports the
//! components themselves use. [`Framework::install_discovery`] mirrors
//! [`Framework::install_monitor`]: deposit the SIDL, add the
//! component instance, export the port under [`DISCOVERY_EXPORT_KEY`],
//! and the next `serve_tcp_mux` call makes the catalog
//! remotely searchable.

use crate::framework::Framework;
use crate::ports::{self, DiscoveryPortSkel};
use cca_core::CcaError;
use cca_obs::trace::escape_json;
use cca_repository::{FuzzyQuery, QueryCursor, QueryPage, Repository};
use cca_sidl::SidlError;
use std::sync::Arc;

/// The SIDL type of the discovery port.
pub const DISCOVERY_PORT_TYPE: &str = "cca.ports.DiscoveryPort";

/// Default instance name [`Framework::install_discovery`] registers under.
pub const DISCOVERY_INSTANCE: &str = "cca-discovery";

/// ORB key the discovery port is exported under —
/// `"{DISCOVERY_INSTANCE}/discovery"`. A remote framework reaches it with
/// `ObjRef::new(DISCOVERY_EXPORT_KEY, transport)`.
pub const DISCOVERY_EXPORT_KEY: &str = "cca-discovery/discovery";

/// SIDL declaration of the discovery interface (`sidl/discovery.sidl`;
/// the build script generates [`ports::DiscoveryPort`] from it),
/// deposited into the repository by [`Framework::install_discovery`] so
/// reflective callers can `invoke_checked` against real metadata.
pub const DISCOVERY_SIDL: &str = include_str!("../sidl/discovery.sidl");

fn page_json(page: &QueryPage) -> String {
    let hits: Vec<String> = page
        .hits
        .iter()
        .map(|h| {
            format!(
                "{{\"class\":\"{}\",\"score\":{}}}",
                escape_json(&h.class),
                h.score
            )
        })
        .collect();
    let cursor = match &page.next {
        Some(c) => format!("\"{}\"", escape_json(&c.encode())),
        None => "null".to_string(),
    };
    format!(
        "{{\"hits\":[{}],\"matched\":{},\"cursor\":{}}}",
        hits.join(","),
        page.matched,
        cursor
    )
}

/// The discovery port object. Holds the repository directly (not the
/// framework): the catalog outliving its framework is fine, and lookup
/// traffic never touches instance state.
pub struct DiscoveryPort {
    repository: Arc<Repository>,
}

impl DiscoveryPort {
    /// Creates a discovery port over `repository`.
    pub fn new(repository: Arc<Repository>) -> Self {
        DiscoveryPort { repository }
    }
}

impl ports::DiscoveryPort for DiscoveryPort {
    fn componentCount(&self) -> Result<i64, SidlError> {
        Ok(self.repository.len() as i64)
    }

    /// Exact class lookup as self-describing JSON.
    fn lookupJson(&self, class: &str) -> Result<String, SidlError> {
        Ok(match self.repository.entry(class) {
            Ok(e) => {
                let ports = |specs: &[cca_repository::PortSpec]| {
                    specs
                        .iter()
                        .map(|p| {
                            format!(
                                "{{\"name\":\"{}\",\"type\":\"{}\"}}",
                                escape_json(&p.name),
                                escape_json(&p.port_type)
                            )
                        })
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    "{{\"found\":true,\"class\":\"{}\",\"description\":\"{}\",\
                     \"provides\":[{}],\"uses\":[{}]}}",
                    escape_json(&e.class),
                    escape_json(&e.description),
                    ports(&e.provides),
                    ports(&e.uses)
                )
            }
            Err(_) => format!("{{\"found\":false,\"class\":\"{}\"}}", escape_json(class)),
        })
    }

    /// First page of a fuzzy query. `limit` arrives from whoever dials the
    /// port: it caps the page (at least one hit) and never sizes a buffer.
    fn searchJson(&self, needle: &str, limit: i64) -> Result<String, SidlError> {
        let query = FuzzyQuery::new(needle).with_limit(limit.max(1) as usize);
        Ok(page_json(&self.repository.fuzzy(&query)))
    }

    /// Continuation page: `cursor` is the opaque string a previous page
    /// returned. Junk cursors error rather than silently restarting the
    /// walk from the top.
    fn pageJson(&self, needle: &str, limit: i64, cursor: &str) -> Result<String, SidlError> {
        let cursor = QueryCursor::parse(cursor)
            .ok_or_else(|| SidlError::invoke(format!("unparseable query cursor '{cursor}'")))?;
        let query = FuzzyQuery::new(needle)
            .with_limit(limit.max(1) as usize)
            .after(cursor);
        Ok(page_json(&self.repository.fuzzy(&query)))
    }

    /// Catalog scale statistics: entry count, shard layout, per-shard
    /// publication generations, and the global repository counters.
    fn statsJson(&self) -> Result<String, SidlError> {
        let generations: Vec<String> = self
            .repository
            .generations()
            .iter()
            .map(u64::to_string)
            .collect();
        Ok(format!(
            "{{\"components\":{},\"shards\":{},\"generations\":[{}],\"counters\":{}}}",
            self.repository.len(),
            self.repository.shard_count(),
            generations.join(","),
            cca_obs::repo().snapshot().to_json()
        ))
    }
}

impl Framework {
    /// Installs the discovery plane: deposits [`DISCOVERY_SIDL`] into the
    /// repository (idempotently), adds a `cca.DiscoveryComponent` instance
    /// named [`DISCOVERY_INSTANCE`], and exports its port under
    /// [`DISCOVERY_EXPORT_KEY`] so the next
    /// [`serve_tcp_mux`](Framework::serve_tcp_mux) call makes the catalog
    /// remotely searchable.
    ///
    /// Returns the installed skeleton for in-process callers (its `.0` is
    /// the typed [`DiscoveryPort`]).
    pub fn install_discovery(
        self: &Arc<Self>,
    ) -> Result<Arc<DiscoveryPortSkel<DiscoveryPort>>, CcaError> {
        let port = DiscoveryPort::new(Arc::clone(self.repository()));
        let port = Arc::new(DiscoveryPortSkel(port));
        self.install_reflective_port(
            DISCOVERY_INSTANCE,
            "cca.DiscoveryComponent",
            "discovery",
            DISCOVERY_PORT_TYPE,
            DISCOVERY_SIDL,
            port.clone(),
        )?;
        let key = self.export_port(DISCOVERY_INSTANCE, "discovery")?;
        debug_assert_eq!(key, DISCOVERY_EXPORT_KEY);
        Ok(port)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ports::DiscoveryPort as _;
    use cca_core::{CcaServices, Component};
    use cca_data::TypeMap;
    use cca_repository::{ComponentEntry, PortSpec};
    use cca_sidl::{compile, invoke_checked, DynObject, DynValue, Reflection};

    struct Nop;
    impl Component for Nop {
        fn component_type(&self) -> &str {
            "t.Nop"
        }
        fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
            Ok(())
        }
    }

    fn entry(class: &str, desc: &str) -> ComponentEntry {
        ComponentEntry {
            class: class.into(),
            description: desc.into(),
            provides: vec![PortSpec::new("solve", "esi.Solver")],
            uses: vec![],
            properties: TypeMap::new(),
            factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
        }
    }

    fn fw_with_catalog() -> Arc<Framework> {
        let repo = Repository::new();
        repo.register_component(entry("esi.KrylovCg", "conjugate gradient solver"))
            .unwrap();
        repo.register_component(entry("esi.KrylovGmres", "restarted gmres solver"))
            .unwrap();
        repo.register_component(entry("viz.Plot", "line plots"))
            .unwrap();
        Framework::new(repo)
    }

    #[test]
    fn install_registers_exports_and_answers() {
        let fw = fw_with_catalog();
        let disc = fw.install_discovery().unwrap();
        assert!(fw.orb().keys().contains(&DISCOVERY_EXPORT_KEY.to_string()));
        // Second install fails on the duplicate instance, not the SIDL.
        assert!(matches!(
            fw.install_discovery(),
            Err(CcaError::ComponentAlreadyExists(_))
        ));
        let found = disc.0.lookupJson("esi.KrylovCg").unwrap();
        assert!(found.contains("\"found\":true"), "{found}");
        assert!(found.contains("\"esi.Solver\""), "{found}");
        let missing = disc.0.lookupJson("esi.Missing").unwrap();
        assert!(missing.contains("\"found\":false"), "{missing}");
        let stats = disc.0.statsJson().unwrap();
        assert!(stats.contains("\"components\":3"), "{stats}");
        assert!(stats.contains("\"counters\":{\"deposits\""), "{stats}");
    }

    #[test]
    fn search_and_paging_over_dynamic_invocation() {
        let fw = fw_with_catalog();
        fw.install_discovery().unwrap();
        let handle = fw
            .services(DISCOVERY_INSTANCE)
            .unwrap()
            .get_provides_port("discovery")
            .unwrap();
        let target = handle.dynamic().unwrap();
        let reflection = Reflection::from_model(&compile(DISCOVERY_SIDL).unwrap());
        let info = reflection.type_info(DISCOVERY_PORT_TYPE).unwrap();

        let r = invoke_checked(
            &**target,
            info.method("searchJson").unwrap(),
            vec![DynValue::Str("krylov".into()), DynValue::Long(1)],
        )
        .unwrap();
        let first = r.as_str().unwrap().to_string();
        assert!(first.contains("\"esi.KrylovCg\""), "{first}");
        assert!(first.contains("\"matched\":2"), "{first}");
        // Pull the cursor out and continue the walk over the wire shape.
        let cursor = first
            .split("\"cursor\":\"")
            .nth(1)
            .and_then(|s| s.split('"').next())
            .expect("first page leaves a cursor")
            .to_string();
        let r = invoke_checked(
            &**target,
            info.method("pageJson").unwrap(),
            vec![
                DynValue::Str("krylov".into()),
                DynValue::Long(1),
                DynValue::Str(cursor),
            ],
        )
        .unwrap();
        let second = r.as_str().unwrap();
        assert!(second.contains("\"esi.KrylovGmres\""), "{second}");
        assert!(second.contains("\"cursor\":null"), "{second}");

        let r = invoke_checked(&**target, info.method("componentCount").unwrap(), vec![]).unwrap();
        assert_eq!(r.as_long().unwrap(), 3);
    }

    #[test]
    fn a_remote_caller_cannot_size_an_allocation_with_its_limit() {
        // `limit` arrives as a SIDL long from anyone who can dial the
        // port; it caps the page, it must never size a buffer.
        let fw = fw_with_catalog();
        let disc = fw.install_discovery().unwrap();
        for limit in [i64::MAX, 100_000_000_000] {
            let page = disc
                .invoke(
                    "searchJson",
                    vec![DynValue::Str("krylov".into()), DynValue::Long(limit)],
                )
                .unwrap();
            let page = page.as_str().unwrap();
            assert!(page.contains("\"matched\":2"), "{page}");
            assert!(page.contains("\"cursor\":null"), "{page}");
            let next = disc
                .invoke(
                    "pageJson",
                    vec![
                        DynValue::Str("krylov".into()),
                        DynValue::Long(limit),
                        DynValue::Str("v1:4294967295:a".into()),
                    ],
                )
                .unwrap();
            assert!(next.as_str().unwrap().contains("\"matched\":2"));
        }
    }

    #[test]
    fn unknown_method_bad_args_and_junk_cursor_error() {
        let fw = fw_with_catalog();
        let disc = fw.install_discovery().unwrap();
        assert!(disc.invoke("selfDestruct", vec![]).is_err());
        assert!(disc.invoke("lookupJson", vec![]).is_err());
        assert!(disc
            .invoke("searchJson", vec![DynValue::Str("x".into())])
            .is_err());
        assert!(disc
            .invoke(
                "pageJson",
                vec![
                    DynValue::Str("krylov".into()),
                    DynValue::Long(5),
                    DynValue::Str("not-a-cursor".into()),
                ],
            )
            .is_err());
    }
}
