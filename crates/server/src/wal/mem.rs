//! A [`Storage`] double that can lose power: a single-directory file
//! system with a page cache, injected I/O death and a power switch. The
//! log's own tests and the shard tests drive the real write path over it.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use isum_common::rng::split_mix64;

use super::Storage;

/// One file's bytes: what the running process sees, and the prefix of
/// that a power cut is sure to keep.
#[derive(Debug, Default, Clone)]
struct Inode {
    data: Vec<u8>,
    /// What is on stable storage. After `sync_file` a copy of `data`;
    /// between syncs a power cut keeps this plus an arbitrary prefix of
    /// what was appended since (or, after a cut-down, either version).
    durable: Vec<u8>,
}

#[derive(Debug, Clone)]
enum DirOp {
    Link(PathBuf, usize),
    Unlink(PathBuf),
    Rename(PathBuf, PathBuf),
}

#[derive(Debug, Default)]
struct Mem {
    inodes: Vec<Inode>,
    /// The directory as the running process sees it.
    live: BTreeMap<PathBuf, usize>,
    /// The directory on stable storage.
    durable: BTreeMap<PathBuf, usize>,
    /// Creates, unlinks and renames since the last `sync_dir`, in order.
    /// A power cut keeps an arbitrary *prefix* of them (a journaling file
    /// system commits directory operations in order).
    pending: Vec<DirOp>,
    /// Operations performed; `dies_at` is the count at which the process
    /// "dies": that operation and every later one fails with EIO (an
    /// append that dies first writes an arbitrary prefix of its bytes).
    ops: u64,
    dies_at: Option<u64>,
    rng: u64,
}

/// A single-directory file system with a page cache and a power switch.
#[derive(Debug, Clone, Default)]
pub(crate) struct MemStorage(Rc<RefCell<Mem>>);

impl Mem {
    fn below(&mut self, bound: usize) -> usize {
        (split_mix64(&mut self.rng) % bound as u64) as usize
    }

    /// Counts one operation; `Err` once the process is dead.
    fn tick(&mut self) -> io::Result<()> {
        self.ops += 1;
        match self.dies_at {
            Some(at) if self.ops >= at => Err(io::Error::other("injected EIO: the process died")),
            _ => Ok(()),
        }
    }

    fn apply(dir: &mut BTreeMap<PathBuf, usize>, op: &DirOp) {
        match op {
            DirOp::Link(path, inode) => {
                dir.insert(path.clone(), *inode);
            }
            DirOp::Unlink(path) => {
                dir.remove(path);
            }
            DirOp::Rename(from, to) => {
                if let Some(inode) = dir.remove(from) {
                    dir.insert(to.clone(), inode);
                }
            }
        }
    }

    fn dir_op(&mut self, op: DirOp) {
        Mem::apply(&mut self.live, &op);
        self.pending.push(op);
    }
}

impl MemStorage {
    pub(crate) fn seeded(seed: u64) -> MemStorage {
        let storage = MemStorage::default();
        storage.0.borrow_mut().rng = seed;
        storage
    }

    /// The process dies `after` operations from now.
    pub(crate) fn die_after(&self, after: u64) {
        let mem = &mut *self.0.borrow_mut();
        mem.dies_at = Some(mem.ops + after);
    }

    /// A new process starts on what the old one left in the page cache.
    pub(crate) fn restart(&self) {
        self.0.borrow_mut().dies_at = None;
    }

    /// The power goes: every file keeps its durable bytes plus an
    /// arbitrary prefix of what was appended since its last fsync, the
    /// directory keeps an arbitrary prefix of its un-fsynced operations.
    pub(crate) fn power_loss(&self) {
        let mem = &mut *self.0.borrow_mut();
        for i in 0..mem.inodes.len() {
            let Inode { data, durable } = mem.inodes[i].clone();
            let kept = if data.starts_with(&durable) {
                let extra = mem.below(data.len() - durable.len() + 1);
                data[..durable.len() + extra].to_vec()
            } else if mem.below(2) == 0 {
                durable
            } else {
                data
            };
            mem.inodes[i] = Inode { data: kept.clone(), durable: kept };
        }
        let keep = mem.below(mem.pending.len() + 1);
        let ops: Vec<DirOp> = mem.pending.drain(..).take(keep).collect();
        for op in &ops {
            Mem::apply(&mut mem.durable, op);
        }
        mem.live = mem.durable.clone();
        mem.dies_at = None;
    }

    pub(crate) fn names(&self) -> Vec<String> {
        self.list(Path::new("/")).expect("lists")
    }

    pub(crate) fn bytes(&self, path: &Path) -> Vec<u8> {
        self.read(path).expect("reads")
    }

    /// Overwrites a file in place, durably (test set-up only).
    pub(crate) fn put(&self, path: &Path, bytes: &[u8]) {
        let mem = &mut *self.0.borrow_mut();
        let inode = match mem.live.get(path) {
            Some(&inode) => inode,
            None => {
                mem.inodes.push(Inode::default());
                let inode = mem.inodes.len() - 1;
                mem.live.insert(path.to_path_buf(), inode);
                mem.durable.insert(path.to_path_buf(), inode);
                inode
            }
        };
        mem.inodes[inode] = Inode { data: bytes.to_vec(), durable: bytes.to_vec() };
    }

    /// `rename(2)`, as the retired snapshot writer used it.
    pub(crate) fn rename(&self, from: &Path, to: &Path) {
        self.0.borrow_mut().dir_op(DirOp::Rename(from.to_path_buf(), to.to_path_buf()));
    }
}

impl Storage for MemStorage {
    type File = usize;

    fn create(&self, path: &Path) -> io::Result<usize> {
        let mem = &mut *self.0.borrow_mut();
        mem.tick()?;
        if mem.live.contains_key(path) {
            return Err(io::Error::new(io::ErrorKind::AlreadyExists, "exists"));
        }
        mem.inodes.push(Inode::default());
        let inode = mem.inodes.len() - 1;
        mem.dir_op(DirOp::Link(path.to_path_buf(), inode));
        Ok(inode)
    }

    fn open_end(&self, path: &Path, len: u64) -> io::Result<usize> {
        let mem = &mut *self.0.borrow_mut();
        mem.tick()?;
        let inode = *mem.live.get(path).ok_or(io::ErrorKind::NotFound)?;
        mem.inodes[inode].data.truncate(len as usize);
        Ok(inode)
    }

    fn append(&self, file: &mut usize, bytes: &[u8]) -> io::Result<()> {
        let mem = &mut *self.0.borrow_mut();
        let died_before = mem.dies_at.is_some_and(|at| mem.ops >= at);
        if let Err(e) = mem.tick() {
            if !died_before {
                let torn = mem.below(bytes.len() + 1);
                mem.inodes[*file].data.extend_from_slice(&bytes[..torn]);
            }
            return Err(e);
        }
        mem.inodes[*file].data.extend_from_slice(bytes);
        Ok(())
    }

    fn sync_file(&self, file: &mut usize) -> io::Result<()> {
        let mem = &mut *self.0.borrow_mut();
        mem.tick()?;
        mem.inodes[*file].durable = mem.inodes[*file].data.clone();
        Ok(())
    }

    fn sync_dir(&self, _dir: &Path) -> io::Result<()> {
        let mem = &mut *self.0.borrow_mut();
        mem.tick()?;
        let ops: Vec<DirOp> = mem.pending.drain(..).collect();
        for op in &ops {
            Mem::apply(&mut mem.durable, op);
        }
        Ok(())
    }

    fn list(&self, _dir: &Path) -> io::Result<Vec<String>> {
        let mem = self.0.borrow();
        Ok(mem.live.keys().filter_map(|p| p.file_name()?.to_str().map(String::from)).collect())
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mem = self.0.borrow();
        let inode = *mem.live.get(path).ok_or(io::ErrorKind::NotFound)?;
        Ok(mem.inodes[inode].data.clone())
    }

    fn unlink(&self, path: &Path) -> io::Result<()> {
        let mem = &mut *self.0.borrow_mut();
        mem.tick()?;
        if !mem.live.contains_key(path) {
            return Err(io::ErrorKind::NotFound.into());
        }
        mem.dir_op(DirOp::Unlink(path.to_path_buf()));
        Ok(())
    }
}
