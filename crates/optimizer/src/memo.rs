//! The exact cost memo beneath the what-if call counter.
//!
//! A workload is a few templates whose instances differ only in their
//! literals, so most statements reach the cost model with inputs an
//! earlier statement already had. [`CostModel::cost`](crate::CostModel::cost)
//! is a pure function of what it reads, so [`CostMemo`] remembers its
//! answer per *signature* — exactly those inputs, nothing guessed:
//!
//! * **the shape's shared lists, by pinned identity.** `tables`, `joins`,
//!   `group_by`, `order_by` and `projections` are `Arc` lists that every
//!   instance of one token shape shares. They key by address, and the
//!   entry holds clones of the five `Arc`s, so no address can be freed and
//!   reused by another list while it is a key. Lists that are not shared
//!   (a query bound without the prepared-template cache) are still exact,
//!   they just never hit;
//! * **the per-statement inputs, by value:** each filter's slot, column,
//!   kind, `in_disjunction`, `sargable` and selectivity bits, and
//!   `n_aggregates`;
//! * **the configuration, in order** — a [`ConfigKey`] from
//!   [`CostMemo::config_key`] names the query's relevant indexes in
//!   [`IndexConfig::relevant_to`] order, the order the model reads them
//!   in. The what-if cache keys on it too.
//!
//! Entries are grouped per shape: one map of shapes, each holding a small
//! map from signature words to cost. A shape's first costing is evaluated
//! but not remembered ([`Probe::FirstOfShape`]); after that there is one
//! entry per distinct signature, and no eviction: the memo lives as long
//! as its optimizer.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use isum_common::hash::{WordHasher, Words};
use isum_common::TableId;
use isum_sql::binder::BoundColumn;
use isum_sql::{BoundJoin, BoundQuery, BoundTable};

use crate::index::{Index, IndexConfig};

/// An ordered configuration key: `0` when no index of the configuration is
/// on a table the query references, else the interned relevant-index list.
/// Two configurations get one key for a query exactly when the cost model
/// would read the same indexes from them in the same order.
pub(crate) type ConfigKey = u32;

/// Interns relevant-index lists, compared element by element (a hash
/// alone never decides equality).
#[derive(Debug, Default)]
struct ConfigKeys {
    /// Key `k` names `lists[k - 1]`.
    lists: Vec<Box<[Index]>>,
    /// Hash of a list → the keys of the lists with that hash.
    by_hash: HashMap<u64, Vec<ConfigKey>, Words>,
}

impl ConfigKeys {
    /// The key of `cfg`'s indexes on `tables` (sorted, deduplicated).
    fn key(&mut self, cfg: &IndexConfig, tables: &[TableId]) -> ConfigKey {
        let relevant: Vec<&Index> = cfg.relevant_to(tables).collect();
        if relevant.is_empty() {
            return 0;
        }
        let mut h = WordHasher::default();
        relevant.hash(&mut h);
        let candidates = self.by_hash.entry(h.finish()).or_default();
        for &k in candidates.iter() {
            if self.lists[k as usize - 1].iter().eq(relevant.iter().copied()) {
                return k;
            }
        }
        let k = ConfigKey::try_from(self.lists.len() + 1).expect("fewer than 2^32 configurations");
        self.lists.push(relevant.into_iter().cloned().collect());
        candidates.push(k);
        k
    }
}

/// Addresses of a query's five shared lists.
type ShapeKey = [usize; 5];

/// A signature with the words inline up to this many (a header plus two
/// words per filter); longer ones spill to the heap.
const INLINE_WORDS: usize = 25;

/// One statement's memo key: its shape and its signature words.
pub(crate) struct Signature {
    shape: ShapeKey,
    len: usize,
    inline: [u64; INLINE_WORDS],
    spilled: Vec<u64>,
}

impl Signature {
    /// The signature of `q` under configuration key `config`; `None` when
    /// a field does not fit its packed word (the statement is then costed
    /// without the memo).
    pub(crate) fn of(q: &BoundQuery, config: ConfigKey) -> Option<Signature> {
        let len = 1 + 2 * q.filters.len();
        let mut sig = Signature {
            shape: [
                addr(&q.tables),
                addr(&q.joins),
                addr(&q.group_by),
                addr(&q.order_by),
                addr(&q.projections),
            ],
            len,
            inline: [0; INLINE_WORDS],
            spilled: Vec::new(),
        };
        let words = if len <= INLINE_WORDS {
            &mut sig.inline[..len]
        } else {
            sig.spilled = vec![0; len];
            &mut sig.spilled[..]
        };
        words[0] = u64::from(config) | u64::from(u32::try_from(q.n_aggregates).ok()?) << 32;
        for (f, w) in q.filters.iter().zip(words[1..].chunks_exact_mut(2)) {
            let (slot, table) = (f.column.slot, f.column.gid.table.0);
            if slot > 0xff || table > 0xffff {
                return None;
            }
            w[0] = u64::from(f.column.gid.column.0) << 32
                | u64::from(table) << 16
                | (slot as u64) << 8
                | (f.kind as u64) << 2
                | u64::from(f.in_disjunction) << 1
                | u64::from(f.sargable);
            w[1] = f.selectivity.to_bits();
        }
        Some(sig)
    }

    fn words(&self) -> &[u64] {
        if self.len <= INLINE_WORDS {
            &self.inline[..self.len]
        } else {
            &self.spilled
        }
    }
}

fn addr<T>(list: &Arc<[T]>) -> usize {
    Arc::as_ptr(list) as *const T as usize
}

/// The five shared lists of a shape, held so their addresses stay keys.
#[derive(Debug)]
struct Pins {
    _tables: Arc<[BoundTable]>,
    _joins: Arc<[BoundJoin]>,
    _group_by: Arc<[BoundColumn]>,
    _order_by: Arc<[BoundColumn]>,
    _projections: Arc<[BoundColumn]>,
}

#[derive(Debug)]
struct ShapeCosts {
    _pins: Pins,
    costs: HashMap<Box<[u64]>, f64, Words>,
}

/// At most this many shapes are held as seen once; the set is emptied when
/// it is full, so a stream of shapes that never repeat holds it bounded.
const SEEN_ONCE_MAX: usize = 4096;

/// What the memo knows of a signature.
pub(crate) enum Probe {
    /// The remembered cost.
    Hit(f64),
    /// Not remembered yet: evaluate, then [`CostMemo::insert`].
    Miss,
    /// The first costing of its shape: evaluate, and remember nothing. A
    /// shape costed once gains nothing from an entry, and queries bound
    /// without the prepared-template cache share no lists, so remembering
    /// first costings would only grow the memo by an entry per query.
    FirstOfShape,
}

/// Signature → cost, grouped per shape.
#[derive(Debug, Default)]
pub(crate) struct CostMemo {
    configs: ConfigKeys,
    shapes: HashMap<ShapeKey, ShapeCosts, Words>,
    /// Shapes costed once and not remembered. Their lists are not pinned:
    /// a recycled address only makes a new shape's first costing a
    /// [`Probe::Miss`], and every hit is read from `shapes`.
    seen_once: HashSet<ShapeKey, Words>,
    signatures: usize,
}

impl CostMemo {
    /// The ordered key of `cfg`'s indexes on `tables` (sorted,
    /// deduplicated), interned on first use.
    pub(crate) fn config_key(&mut self, cfg: &IndexConfig, tables: &[TableId]) -> ConfigKey {
        self.configs.key(cfg, tables)
    }

    /// Looks a signature up, noting a shape's first costing.
    pub(crate) fn probe(&mut self, sig: &Signature) -> Probe {
        if let Some(shape) = self.shapes.get(&sig.shape) {
            return shape.costs.get(sig.words()).map_or(Probe::Miss, |&c| Probe::Hit(c));
        }
        if self.seen_once.remove(&sig.shape) {
            return Probe::Miss;
        }
        if self.seen_once.len() >= SEEN_ONCE_MAX {
            self.seen_once.clear();
        }
        self.seen_once.insert(sig.shape);
        Probe::FirstOfShape
    }

    /// Remembers the cost of `q`'s signature `sig`; `true` when it was new
    /// (a racing thread may have inserted it first).
    pub(crate) fn insert(&mut self, q: &BoundQuery, sig: &Signature, cost: f64) -> bool {
        let shape = self.shapes.entry(sig.shape).or_insert_with(|| ShapeCosts {
            _pins: Pins {
                _tables: Arc::clone(&q.tables),
                _joins: Arc::clone(&q.joins),
                _group_by: Arc::clone(&q.group_by),
                _order_by: Arc::clone(&q.order_by),
                _projections: Arc::clone(&q.projections),
            },
            costs: HashMap::default(),
        });
        match shape.costs.entry(sig.words().into()) {
            Entry::Occupied(_) => false,
            Entry::Vacant(v) => {
                v.insert(cost);
                self.signatures += 1;
                true
            }
        }
    }

    /// Number of distinct signatures held.
    pub(crate) fn len(&self) -> usize {
        self.signatures
    }
}
