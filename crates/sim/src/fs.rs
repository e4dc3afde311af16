//! In-memory guest filesystem with a page-cache model.
//!
//! The filesystem is a plain tree of directories and byte files. Each file
//! tracks whether its contents are resident in the (machine-wide) page
//! cache: the first read of a file is *cold* and priced at disk rates by
//! the kernel, subsequent reads are *warm*. [`SimFs::drop_caches`] models a
//! fresh container image with nothing cached — the state every cold start
//! in the paper begins from.

use std::collections::BTreeMap;
use std::fmt;

use bytes::Bytes;

use crate::error::{Errno, SysResult};

/// Splits a normalised absolute path into components.
///
/// # Errors
///
/// Returns [`Errno::Einval`] unless the path starts with `/` and has no
/// empty or `.`/`..` components.
pub(crate) fn split_path(path: &str) -> SysResult<Vec<&str>> {
    let rest = path.strip_prefix('/').ok_or(Errno::Einval)?;
    if rest.is_empty() {
        return Ok(Vec::new());
    }
    let parts: Vec<&str> = rest.split('/').collect();
    if parts
        .iter()
        .any(|p| p.is_empty() || *p == "." || *p == "..")
    {
        return Err(Errno::Einval);
    }
    Ok(parts)
}

/// Joins path segments onto a base path.
///
/// ```
/// assert_eq!(prebake_sim::fs::join_path("/a/b", "c.img"), "/a/b/c.img");
/// assert_eq!(prebake_sim::fs::join_path("/", "c.img"), "/c.img");
/// ```
pub fn join_path(base: &str, name: &str) -> String {
    if base == "/" {
        format!("/{name}")
    } else {
        format!("{base}/{name}")
    }
}

#[derive(Debug, Clone)]
struct FileNode {
    data: Bytes,
    cached: bool,
}

#[derive(Debug, Clone)]
enum Node {
    Dir(BTreeMap<String, Node>),
    File(FileNode),
}

/// An in-memory filesystem tree.
///
/// `SimFs` is pure state: it never charges virtual time itself. The
/// [`Kernel`](crate::kernel::Kernel) wraps each operation and charges the
/// [`CostModel`](crate::cost::CostModel) price, using the cache flags
/// reported here.
///
/// # Examples
///
/// ```
/// use prebake_sim::fs::SimFs;
///
/// let mut fs = SimFs::new();
/// fs.create_dir_all("/app").unwrap();
/// fs.write_file("/app/fn.jar", b"bytes".to_vec()).unwrap();
/// fs.drop_caches(); // fresh container: nothing resident
/// let (data, cached) = fs.read_file("/app/fn.jar").unwrap();
/// assert_eq!(&data[..], b"bytes");
/// assert!(!cached, "first read is cold");
/// let (_, cached) = fs.read_file("/app/fn.jar").unwrap();
/// assert!(cached, "second read hits the page cache");
/// ```
#[derive(Debug, Clone)]
pub struct SimFs {
    root: Node,
}

impl SimFs {
    /// An empty filesystem containing only `/`.
    pub fn new() -> Self {
        SimFs {
            root: Node::Dir(BTreeMap::new()),
        }
    }

    fn lookup(&self, path: &str) -> SysResult<&Node> {
        let parts = split_path(path)?;
        let mut cur = &self.root;
        for part in parts {
            match cur {
                Node::Dir(entries) => {
                    cur = entries.get(part).ok_or(Errno::Enoent)?;
                }
                Node::File(_) => return Err(Errno::Enotdir),
            }
        }
        Ok(cur)
    }

    fn lookup_mut(&mut self, path: &str) -> SysResult<&mut Node> {
        let parts = split_path(path)?;
        let mut cur = &mut self.root;
        for part in parts {
            match cur {
                Node::Dir(entries) => {
                    cur = entries.get_mut(part).ok_or(Errno::Enoent)?;
                }
                Node::File(_) => return Err(Errno::Enotdir),
            }
        }
        Ok(cur)
    }

    fn parent_dir_mut(&mut self, path: &str) -> SysResult<(&mut BTreeMap<String, Node>, String)> {
        let parts = split_path(path)?;
        let (name, dirs) = parts.split_last().ok_or(Errno::Einval)?;
        let mut cur = &mut self.root;
        for part in dirs {
            match cur {
                Node::Dir(entries) => {
                    cur = entries.get_mut(*part).ok_or(Errno::Enoent)?;
                }
                Node::File(_) => return Err(Errno::Enotdir),
            }
        }
        match cur {
            Node::Dir(entries) => Ok((entries, (*name).to_owned())),
            Node::File(_) => Err(Errno::Enotdir),
        }
    }

    /// Creates a directory and all missing ancestors.
    ///
    /// # Errors
    ///
    /// [`Errno::Eexist`] if a *file* occupies any component.
    pub fn create_dir_all(&mut self, path: &str) -> SysResult<()> {
        let parts = split_path(path)?;
        let mut cur = &mut self.root;
        for part in parts {
            match cur {
                Node::Dir(entries) => {
                    cur = entries
                        .entry(part.to_owned())
                        .or_insert_with(|| Node::Dir(BTreeMap::new()));
                    if matches!(cur, Node::File(_)) {
                        return Err(Errno::Eexist);
                    }
                }
                Node::File(_) => return Err(Errno::Eexist),
            }
        }
        Ok(())
    }

    /// Writes (creates or truncates) a file. The parent directory must
    /// exist. A freshly written file counts as cached (it was just in
    /// memory).
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] if the parent is missing, [`Errno::Eisdir`] if the
    /// path names a directory.
    pub fn write_file(&mut self, path: &str, data: impl Into<Bytes>) -> SysResult<()> {
        let (entries, name) = self.parent_dir_mut(path)?;
        match entries.get(&name) {
            Some(Node::Dir(_)) => return Err(Errno::Eisdir),
            _ => {
                entries.insert(
                    name,
                    Node::File(FileNode {
                        data: data.into(),
                        cached: true,
                    }),
                );
            }
        }
        Ok(())
    }

    /// Reads a file's contents, returning the bytes and whether the read
    /// was served from the page cache. Marks the file cached afterwards.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] / [`Errno::Eisdir`] on bad paths.
    pub fn read_file(&mut self, path: &str) -> SysResult<(Bytes, bool)> {
        match self.lookup_mut(path)? {
            Node::File(f) => {
                let was_cached = f.cached;
                f.cached = true;
                Ok((f.data.clone(), was_cached))
            }
            Node::Dir(_) => Err(Errno::Eisdir),
        }
    }

    /// Returns `true` if the path exists.
    pub(crate) fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// Lists the names in a directory, sorted.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] / [`Errno::Enotdir`] on bad paths.
    pub fn list_dir(&self, path: &str) -> SysResult<Vec<String>> {
        match self.lookup(path)? {
            Node::Dir(entries) => Ok(entries.keys().cloned().collect()),
            Node::File(_) => Err(Errno::Enotdir),
        }
    }

    /// Removes a file.
    ///
    /// # Errors
    ///
    /// [`Errno::Enoent`] if missing, [`Errno::Eisdir`] if it is a directory.
    pub(crate) fn remove_file(&mut self, path: &str) -> SysResult<()> {
        let (entries, name) = self.parent_dir_mut(path)?;
        match entries.get(&name) {
            Some(Node::File(_)) => {
                entries.remove(&name);
                Ok(())
            }
            Some(Node::Dir(_)) => Err(Errno::Eisdir),
            None => Err(Errno::Enoent),
        }
    }

    /// Marks every file uncached, modelling a freshly provisioned
    /// container whose image has never been read.
    pub fn drop_caches(&mut self) {
        fn walk(node: &mut Node) {
            match node {
                Node::File(f) => f.cached = false,
                Node::Dir(entries) => entries.values_mut().for_each(walk),
            }
        }
        walk(&mut self.root);
    }
}

impl Default for SimFs {
    fn default() -> Self {
        SimFs::new()
    }
}

impl fmt::Display for SimFs {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn walk(node: &Node, name: &str, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            let pad = "  ".repeat(depth);
            match node {
                Node::File(file) => {
                    writeln!(f, "{pad}{name} ({} bytes)", file.data.len())
                }
                Node::Dir(entries) => {
                    writeln!(f, "{pad}{name}/")?;
                    for (child_name, child) in entries {
                        walk(child, child_name, depth + 1, f)?;
                    }
                    Ok(())
                }
            }
        }
        walk(&self.root, "", 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_path_validates() {
        assert_eq!(split_path("/a/b").unwrap(), vec!["a", "b"]);
        assert_eq!(split_path("/").unwrap(), Vec::<&str>::new());
        assert_eq!(split_path("relative").unwrap_err(), Errno::Einval);
        assert_eq!(split_path("/a//b").unwrap_err(), Errno::Einval);
        assert_eq!(split_path("/a/../b").unwrap_err(), Errno::Einval);
        assert_eq!(split_path("/a/./b").unwrap_err(), Errno::Einval);
    }

    #[test]
    fn write_requires_parent() {
        let mut fs = SimFs::new();
        assert_eq!(
            fs.write_file("/missing/f", Vec::new()).unwrap_err(),
            Errno::Enoent
        );
        fs.create_dir_all("/missing").unwrap();
        fs.write_file("/missing/f", vec![1, 2, 3]).unwrap();
        assert_eq!(fs.read_file("/missing/f").unwrap().0.len(), 3);
    }

    #[test]
    fn create_dir_all_is_idempotent() {
        let mut fs = SimFs::new();
        fs.create_dir_all("/a/b/c").unwrap();
        fs.create_dir_all("/a/b/c").unwrap();
        fs.create_dir_all("/a/b").unwrap();
        assert!(fs.list_dir("/a/b/c").unwrap().is_empty());
    }

    #[test]
    fn create_dir_over_file_fails() {
        let mut fs = SimFs::new();
        fs.write_file("/f", Vec::new()).unwrap();
        assert_eq!(fs.create_dir_all("/f/sub").unwrap_err(), Errno::Eexist);
        assert_eq!(fs.create_dir_all("/f").unwrap_err(), Errno::Eexist);
    }

    #[test]
    fn cache_state_transitions() {
        let mut fs = SimFs::new();
        fs.write_file("/f", vec![0u8; 128]).unwrap();
        let (_, cached) = fs.read_file("/f").unwrap();
        assert!(cached, "freshly written is cached");
        fs.drop_caches();
        let (_, cached) = fs.read_file("/f").unwrap();
        assert!(!cached, "first read after drop_caches is cold");
        let (_, cached) = fs.read_file("/f").unwrap();
        assert!(cached);
    }

    #[test]
    fn overwrite_truncates() {
        let mut fs = SimFs::new();
        fs.write_file("/f", vec![1u8; 100]).unwrap();
        fs.write_file("/f", vec![2u8; 10]).unwrap();
        let (data, _) = fs.read_file("/f").unwrap();
        assert_eq!(data.len(), 10);
        assert!(data.iter().all(|&b| b == 2));
    }

    #[test]
    fn list_dir_sorted() {
        let mut fs = SimFs::new();
        fs.create_dir_all("/d").unwrap();
        fs.write_file("/d/zz", Vec::new()).unwrap();
        fs.write_file("/d/aa", Vec::new()).unwrap();
        fs.create_dir_all("/d/mm").unwrap();
        assert_eq!(fs.list_dir("/d").unwrap(), vec!["aa", "mm", "zz"]);
        assert_eq!(fs.list_dir("/d/aa").unwrap_err(), Errno::Enotdir);
    }

    #[test]
    fn remove_file_and_dir() {
        let mut fs = SimFs::new();
        fs.create_dir_all("/d/sub").unwrap();
        fs.write_file("/d/f", Vec::new()).unwrap();
        assert_eq!(fs.remove_file("/d/sub").unwrap_err(), Errno::Eisdir);
        fs.remove_file("/d/f").unwrap();
        assert!(!fs.exists("/d/f"));
        assert_eq!(fs.remove_file("/d/f").unwrap_err(), Errno::Enoent);
    }

    #[test]
    fn read_dir_as_file_fails() {
        let mut fs = SimFs::new();
        fs.create_dir_all("/d").unwrap();
        assert_eq!(fs.read_file("/d").unwrap_err(), Errno::Eisdir);
    }

    #[test]
    fn path_through_file_is_enotdir() {
        let mut fs = SimFs::new();
        fs.write_file("/f", Vec::new()).unwrap();
        assert_eq!(fs.read_file("/f/x").unwrap_err(), Errno::Enotdir);
    }

    #[test]
    fn display_renders_tree() {
        let mut fs = SimFs::new();
        fs.create_dir_all("/app").unwrap();
        fs.write_file("/app/jar", vec![0u8; 5]).unwrap();
        let s = fs.to_string();
        assert!(s.contains("app/"), "{s}");
        assert!(s.contains("jar (5 bytes)"), "{s}");
    }

    #[test]
    fn join_path_handles_root() {
        assert_eq!(join_path("/", "x"), "/x");
        assert_eq!(join_path("/a", "x"), "/a/x");
    }
}
