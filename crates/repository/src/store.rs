//! Component entries and instantiation factories.

use crate::catalog::Catalog;
use crate::shard::{Segment, ShardedStore, StoredEntry, DEFAULT_SHARDS};
use cca_core::{CcaError, Component};
use cca_data::TypeMap;
use cca_sidl::SidlError;
use parking_lot::RwLock;
use std::sync::Arc;

/// A port a component promises to provide or use, as advertised in the
/// repository (instance name + SIDL interface type).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PortSpec {
    /// Port instance name.
    pub name: String,
    /// SIDL interface type.
    pub port_type: String,
}

impl PortSpec {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, port_type: impl Into<String>) -> Self {
        PortSpec {
            name: name.into(),
            port_type: port_type.into(),
        }
    }
}

/// Instantiates fresh component instances (the repository's handle on a
/// component's implementation).
pub trait ComponentFactory: Send + Sync {
    /// Creates a new, un-wired component instance.
    fn create(&self) -> Arc<dyn Component>;
}

impl<F> ComponentFactory for F
where
    F: Fn() -> Arc<dyn Component> + Send + Sync,
{
    fn create(&self) -> Arc<dyn Component> {
        self()
    }
}

/// One component registration.
#[derive(Clone)]
pub struct ComponentEntry {
    /// Fully qualified SIDL class name.
    pub class: String,
    /// Human-readable description.
    pub description: String,
    /// Ports the component provides.
    pub provides: Vec<PortSpec>,
    /// Ports the component uses.
    pub uses: Vec<PortSpec>,
    /// Arbitrary properties (e.g. required framework "flavor" of §4).
    pub properties: TypeMap,
    /// The instantiation factory.
    pub factory: Arc<dyn ComponentFactory>,
}

impl std::fmt::Debug for ComponentEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ComponentEntry")
            .field("class", &self.class)
            .field("provides", &self.provides)
            .field("uses", &self.uses)
            .finish()
    }
}

/// The repository: a SIDL catalog plus a sharded table of instantiable
/// components (see [`crate::shard`] for the concurrency story — readers
/// work on frozen per-shard snapshots, writers clone-mutate-swap).
pub struct Repository {
    catalog: RwLock<Catalog>,
    /// The component table, its shard count fixed at construction.
    pub(crate) store: ShardedStore,
}

impl Default for Repository {
    fn default() -> Self {
        Repository {
            catalog: RwLock::new(Catalog::default()),
            store: ShardedStore::new(DEFAULT_SHARDS),
        }
    }
}

impl Repository {
    /// Creates an empty repository with the default shard count.
    pub fn new() -> Arc<Self> {
        Arc::new(Repository::default())
    }

    /// Creates an empty repository with an explicit shard count, fixed
    /// for its lifetime (tests and benchmarks; `shards == 1` degenerates
    /// to the flat store).
    pub fn with_shards(shards: usize) -> Arc<Self> {
        Arc::new(Repository {
            catalog: RwLock::new(Catalog::default()),
            store: ShardedStore::new(shards),
        })
    }

    /// Deposits SIDL source into the catalog.
    pub fn deposit_sidl(&self, source: &str) -> Result<Vec<String>, SidlError> {
        self.catalog.write().deposit(source)
    }

    /// Read access to the catalog.
    pub fn with_catalog<R>(&self, f: impl FnOnce(&Catalog) -> R) -> R {
        f(&self.catalog.read())
    }

    /// Registers a component entry. The class should already be described
    /// in the catalog (enforced when it is; unknown classes are accepted
    /// with a warning-free pass to allow non-SIDL components, but their
    /// port types cannot be subtype-checked).
    pub fn register_component(&self, entry: ComponentEntry) -> Result<(), CcaError> {
        self.insert(StoredEntry::new(entry), false)
    }

    /// Re-registers (upserts) a component entry: a re-deposit of an
    /// already-known class replaces it in place instead of erroring.
    pub fn reregister_component(&self, entry: ComponentEntry) {
        self.insert(StoredEntry::new(entry), true)
            .expect("overwrite insert cannot reject");
    }

    fn insert(&self, stored: StoredEntry, overwrite: bool) -> Result<(), CcaError> {
        self.store.try_insert(stored, overwrite)?;
        cca_obs::repo().record_deposits(1);
        Ok(())
    }

    /// Registers a whole batch in one publication per touched shard,
    /// all-or-nothing: any duplicate (against the store or within the
    /// batch) rejects the lot and publishes nothing. This is the scale
    /// path — a million types cost one fold per shard, not one per entry.
    pub fn register_components(&self, batch: Vec<ComponentEntry>) -> Result<usize, CcaError> {
        let n = self
            .store
            .try_insert_batch(batch.into_iter().map(StoredEntry::new).collect())?;
        cca_obs::repo().record_deposits(n as u64);
        Ok(n)
    }

    /// Removes a component entry.
    pub fn unregister_component(&self, class: &str) -> Result<ComponentEntry, CcaError> {
        self.store.try_remove(class)
    }

    /// The entry for a class (exact lookup: one hash, one frozen shard).
    pub fn entry(&self, class: &str) -> Result<ComponentEntry, CcaError> {
        match self.store.get(class) {
            Some(entry) => {
                cca_obs::repo().record_exact_lookup();
                Ok(entry)
            }
            None => {
                cca_obs::repo().record_exact_miss();
                Err(CcaError::ComponentNotFound(class.to_string()))
            }
        }
    }

    /// Instantiates a fresh component of the given class.
    pub fn create(&self, class: &str) -> Result<Arc<dyn Component>, CcaError> {
        Ok(self.entry(class)?.factory.create())
    }

    /// All registered entries, sorted by class name.
    pub fn entries(&self) -> Vec<ComponentEntry> {
        let mut all: Vec<ComponentEntry> = self
            .store
            .snapshots()
            .iter()
            .flat_map(|snap| snap.segments())
            .flat_map(Segment::entries)
            .cloned()
            .collect();
        all.sort_by(|a, b| a.class.cmp(&b.class));
        all
    }

    /// Number of registered components.
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True if no components are registered.
    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Number of shards, as fixed at construction.
    pub fn shard_count(&self) -> usize {
        self.store.shard_count()
    }

    /// Per-shard publication generations.
    pub fn generations(&self) -> Vec<u64> {
        self.store.generations()
    }

    /// Subtype check backed by the catalog (reflexive, false for unknowns).
    pub fn is_subtype_of(&self, sub: &str, sup: &str) -> bool {
        self.catalog.read().is_subtype_of(sub, sup)
    }

    /// Writes every deposited package as `<package>.sidl` under `dir`
    /// (creating it), returning the written file names. This is the
    /// on-disk form of Figure 2's repository: interface definitions other
    /// teams can retrieve and compile against.
    pub fn export_catalog(&self, dir: &std::path::Path) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let catalog = self.catalog.read();
        let mut written = Vec::new();
        for pkg in catalog.packages() {
            let filename = format!("{pkg}.sidl");
            std::fs::write(
                dir.join(&filename),
                catalog.source_of(pkg).expect("listed package has source"),
            )?;
            written.push(filename);
        }
        Ok(written)
    }

    /// Deposits every `*.sidl` file found under `dir` (sorted by file
    /// name, so cross-file references must respect lexicographic order or
    /// live in one file). Returns all newly registered type names.
    pub fn import_catalog(&self, dir: &std::path::Path) -> Result<Vec<String>, CcaError> {
        let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| CcaError::Framework(format!("reading {}: {e}", dir.display())))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|ext| ext == "sidl"))
            .collect();
        files.sort();
        let mut types = Vec::new();
        for path in files {
            let source = std::fs::read_to_string(&path)
                .map_err(|e| CcaError::Framework(format!("reading {}: {e}", path.display())))?;
            types.extend(self.deposit_sidl(&source)?);
        }
        Ok(types)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cca_core::CcaServices;

    struct Nop;
    impl Component for Nop {
        fn component_type(&self) -> &str {
            "demo.Nop"
        }
        fn set_services(&self, _s: Arc<CcaServices>) -> Result<(), CcaError> {
            Ok(())
        }
    }

    fn nop_entry(class: &str) -> ComponentEntry {
        ComponentEntry {
            class: class.into(),
            description: "does nothing".into(),
            provides: vec![PortSpec::new("go", "cca.ports.GoPort")],
            uses: vec![],
            properties: TypeMap::new(),
            factory: Arc::new(|| Arc::new(Nop) as Arc<dyn Component>),
        }
    }

    #[test]
    fn register_create_lifecycle() {
        let repo = Repository::new();
        assert!(repo.is_empty());
        repo.register_component(nop_entry("demo.Nop")).unwrap();
        assert_eq!(repo.len(), 1);
        let c = repo.create("demo.Nop").unwrap();
        assert_eq!(c.component_type(), "demo.Nop");
        // Each create produces a fresh instance.
        let c2 = repo.create("demo.Nop").unwrap();
        assert!(!Arc::ptr_eq(&c, &c2));
        assert!(matches!(
            repo.create("demo.Missing"),
            Err(CcaError::ComponentNotFound(_))
        ));
    }

    #[test]
    fn duplicate_registration_rejected() {
        let repo = Repository::new();
        repo.register_component(nop_entry("demo.Nop")).unwrap();
        assert!(matches!(
            repo.register_component(nop_entry("demo.Nop")),
            Err(CcaError::ComponentAlreadyExists(_))
        ));
    }

    #[test]
    fn unregister() {
        let repo = Repository::new();
        repo.register_component(nop_entry("demo.Nop")).unwrap();
        let e = repo.unregister_component("demo.Nop").unwrap();
        assert_eq!(e.class, "demo.Nop");
        assert!(repo.unregister_component("demo.Nop").is_err());
    }

    #[test]
    fn batch_registration_and_upsert() {
        let repo = Repository::with_shards(4);
        let n = repo
            .register_components((0..100).map(|i| nop_entry(&format!("p{i}.C"))).collect())
            .unwrap();
        assert_eq!(n, 100);
        assert_eq!(repo.len(), 100);
        // A batch duplicating an existing class rejects whole.
        assert!(repo
            .register_components(vec![nop_entry("q.New"), nop_entry("p7.C")])
            .is_err());
        assert_eq!(repo.len(), 100);
        assert!(repo.entry("q.New").is_err());
        // Re-deposit replaces in place.
        let mut e = nop_entry("p7.C");
        e.description = "second deposit".into();
        repo.reregister_component(e);
        assert_eq!(repo.entry("p7.C").unwrap().description, "second deposit");
        assert_eq!(repo.len(), 100);
    }

    #[test]
    fn shard_count_changes_layout_not_entries() {
        let build = |shards| {
            let repo = Repository::with_shards(shards);
            repo.register_components((0..50).map(|i| nop_entry(&format!("p{i}.C"))).collect())
                .unwrap();
            repo
        };
        let (two, eight) = (build(2), build(8));
        assert_eq!((two.shard_count(), eight.shard_count()), (2, 8));
        let occupied = |repo: &Repository| {
            repo.store
                .snapshots()
                .iter()
                .filter(|s| !s.is_empty())
                .count()
        };
        assert!(
            occupied(&eight) > occupied(&two),
            "more shards, wider spread"
        );
        // Entries come back sorted, complete and identical at either size.
        let classes = |repo: &Repository| -> Vec<String> {
            repo.entries().into_iter().map(|e| e.class).collect()
        };
        let mut sorted = classes(&eight);
        sorted.sort();
        assert_eq!(classes(&eight), sorted);
        assert_eq!(classes(&two), sorted);
        assert_eq!(sorted.len(), 50);
        for repo in [&two, &eight] {
            for i in 0..50 {
                assert!(repo.entry(&format!("p{i}.C")).is_ok());
            }
            repo.register_component(nop_entry("after.Build")).unwrap();
            assert_eq!(repo.len(), 51);
        }
    }

    #[test]
    fn generations_expose_publication_counts() {
        let repo = Repository::with_shards(1);
        assert_eq!(repo.generations(), vec![0]);
        repo.register_component(nop_entry("a.A")).unwrap();
        repo.register_component(nop_entry("b.B")).unwrap();
        assert_eq!(repo.generations(), vec![2]);
    }

    #[test]
    fn sidl_and_subtyping_integration() {
        let repo = Repository::new();
        repo.deposit_sidl(
            "package demo { interface Port { void f(); } class Nop implements-all Port { } }",
        )
        .unwrap();
        assert!(repo.is_subtype_of("demo.Nop", "demo.Port"));
        assert!(!repo.is_subtype_of("demo.Port", "demo.Nop"));
        repo.with_catalog(|c| {
            assert!(c.source_of("demo").unwrap().contains("class Nop"));
        });
    }

    #[test]
    fn entry_metadata_preserved() {
        let repo = Repository::new();
        let mut e = nop_entry("demo.Nop");
        e.properties.put_string("flavor", "in-process".into());
        repo.register_component(e).unwrap();
        let got = repo.entry("demo.Nop").unwrap();
        assert_eq!(got.provides[0].port_type, "cca.ports.GoPort");
        assert_eq!(
            got.properties.get_string("flavor", String::new()),
            "in-process"
        );
        assert!(format!("{got:?}").contains("demo.Nop"));
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("cca_repo_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn export_import_round_trip() {
        let src_repo = Repository::new();
        src_repo
            .deposit_sidl("package a { interface X { void f(); } }")
            .unwrap();
        src_repo
            .deposit_sidl("package b { class Y implements-all a.X { } }")
            .unwrap_err(); // cross-deposit reference: must fail alone
        src_repo
            .deposit_sidl("package b { interface Z { void g(); } class Y implements-all Z { } }")
            .unwrap();
        let dir = temp_dir("roundtrip");
        let written = src_repo.export_catalog(&dir).unwrap();
        assert_eq!(written, vec!["a.sidl".to_string(), "b.sidl".to_string()]);

        let dst_repo = Repository::new();
        let types = dst_repo.import_catalog(&dir).unwrap();
        assert!(types.contains(&"a.X".to_string()));
        assert!(types.contains(&"b.Y".to_string()));
        assert!(dst_repo.is_subtype_of("b.Y", "b.Z"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn import_missing_directory_errors() {
        let repo = Repository::new();
        assert!(repo
            .import_catalog(std::path::Path::new("/nonexistent/cca_repo"))
            .is_err());
    }

    #[test]
    fn import_skips_non_sidl_files() {
        let dir = temp_dir("skip");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("notes.txt"), "not sidl").unwrap();
        std::fs::write(
            dir.join("p.sidl"),
            "package p { interface I { void f(); } }",
        )
        .unwrap();
        let repo = Repository::new();
        let types = repo.import_catalog(&dir).unwrap();
        assert_eq!(types, vec!["p.I".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
