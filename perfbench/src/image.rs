//! Durable images shared by `oltp` and `reopt`: the standard library, 40
//! renamed copies of the Stanford suite (closures the traffic never
//! calls, so reopening pays for a whole-world relink) and a block of
//! one-cell data arrays under one root.

use std::path::{Path, PathBuf};
use tml_core::Registry;
use tml_lang::stanford::suite;
use tml_lang::{Session, SessionConfig};
use tml_reflect::{relink_image_code, session_from_access_with, RelinkReport};
use tml_store::{DurableOptions, DurableStore, Object, SVal, StoreAccess};

/// Renamed copies of the Stanford suite in every image.
pub const COPIES: usize = 40;

/// Module name of copy `k` of program `name`.
pub fn copy_module(name: &str, k: usize) -> String {
    format!("{name}_c{k:02}")
}

/// TL source of `copies` renamed copies of the suite.
pub fn copies_source(copies: usize) -> String {
    let mut src = String::new();
    for k in 0..copies {
        for p in suite() {
            let renamed = p.src.replacen(
                &format!("module {} export", p.name),
                &format!("module {} export", copy_module(p.name, k)),
                1,
            );
            src.push_str(&renamed);
            src.push('\n');
        }
    }
    src
}

/// Build a fresh durable image at `path`: stdlib, `copies` suite copies
/// and `cells` one-cell arrays (initially 0) referenced from the array
/// root `root`. Ends with a commit and a checkpoint, so the image opens
/// without log replay. Returns the time spent in `Session::load_str` for
/// the copies, in milliseconds.
pub fn build(path: &Path, copies: usize, cells: usize, root: &str) -> Result<f64, String> {
    let ds = DurableStore::create(path, DurableOptions::default()).map_err(|e| e.to_string())?;
    let mut s = Session::on_store(ds, SessionConfig::default(), Registry::standard())
        .map_err(|e| e.to_string())?;
    let src = copies_source(copies);
    let (loaded, load_ms) = crate::timed(|| s.load_str(&src));
    loaded.map_err(|e| e.to_string())?;
    let mut refs = Vec::with_capacity(cells);
    for _ in 0..cells {
        let cell = s
            .store
            .alloc(Object::Array(vec![SVal::Int(0)]))
            .map_err(|e| e.to_string())?;
        refs.push(SVal::Ref(cell));
    }
    let table = s
        .store
        .alloc(Object::Array(refs))
        .map_err(|e| e.to_string())?;
    s.store.set_root(root, table).map_err(|e| e.to_string())?;
    s.store.commit().map_err(|e| e.to_string())?;
    s.store.checkpoint().map_err(|e| e.to_string())?;
    Ok(load_ms)
}

/// Reopen an image as a durable session: `session_from_access_with` plus
/// the whole-world `relink_image_code`. Returns the session, the relink
/// report and the open and relink times in milliseconds.
pub fn open_session(
    path: &Path,
    opts: DurableOptions,
) -> Result<(Session<DurableStore>, RelinkReport, f64, f64), String> {
    let (opened, open_ms) = crate::timed(|| DurableStore::open(path, opts));
    let (ds, _report) = opened.map_err(|e| format!("open {}: {e}", path.display()))?;
    let (relinked, relink_ms) = crate::timed(|| {
        let mut s = session_from_access_with(ds, SessionConfig::default(), Registry::standard());
        relink_image_code(&mut s).map(|r| (s, r))
    });
    let (s, report) = relinked.map_err(|e| format!("relink: {e}"))?;
    Ok((s, report, open_ms, relink_ms))
}

/// The cell OIDs under array root `root`.
pub fn cells<S: StoreAccess>(store: &S, root: &str) -> Result<Vec<tml_core::Oid>, String> {
    let table = store
        .base()
        .root(root)
        .ok_or_else(|| format!("image has no root {root}"))?;
    match store.base().get(table) {
        Ok(Object::Array(refs)) => refs
            .iter()
            .map(|v| {
                v.as_ref_oid()
                    .ok_or_else(|| format!("{root} holds a non-reference"))
            })
            .collect(),
        _ => Err(format!("root {root} is not an array")),
    }
}

/// The image's files: the catalog and its `.p<gen>` and `.wal` siblings.
pub fn files(path: &Path) -> Vec<PathBuf> {
    let Some(dir) = path.parent() else {
        return Vec::new();
    };
    let base = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_default();
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            name == base
                || name == format!("{base}.wal")
                || name
                    .strip_prefix(&format!("{base}.p"))
                    .is_some_and(|g| !g.is_empty() && g.bytes().all(|b| b.is_ascii_digit()))
        })
        .collect();
    out.sort();
    out
}

/// Total size of the image's files.
pub fn bytes(path: &Path) -> u64 {
    files(path)
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// Replace directory `to` with a copy of every file in `from`.
pub fn restore(from: &Path, to: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).map_err(|e| format!("{}: {e}", to.display()))?;
    for entry in std::fs::read_dir(from).map_err(|e| format!("{}: {e}", from.display()))? {
        let entry = entry.map_err(|e| e.to_string())?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))
            .map_err(|e| format!("copy {}: {e}", entry.path().display()))?;
    }
    Ok(())
}
