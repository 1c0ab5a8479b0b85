//! Grouping/join hash strategies (paper §2.3.4).
//!
//! Hashing performance is driven by key width: 1–2 bytes allows *direct*
//! hashing with a small 64K-element lookup table; 3–8 packed bytes admit a
//! *perfect* hash (the packed key is its own identity — no collision
//! detection, no tuple comparison); anything wider needs full *collision*
//! handling. Narrowing columns (§3.4.1) exists precisely to push keys down
//! this ladder.

use std::collections::HashMap;

/// The chosen grouping strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HashStrategy {
    /// Keys pack into ≤ 16 bits: direct index into a 64K table.
    Direct64K,
    /// Keys pack into 17–64 bits: open addressing on the packed `u64`
    /// with a multiplicative hash. The packed key is the group's
    /// identity, so a probe compares one word, never the key tuple.
    Perfect,
    /// Wide keys: full tuple hashing with collision detection.
    Collision,
}

impl HashStrategy {
    /// Human-readable name for explain output.
    pub fn name(self) -> &'static str {
        match self {
            HashStrategy::Direct64K => "direct-64k",
            HashStrategy::Perfect => "perfect",
            HashStrategy::Collision => "collision",
        }
    }
}

/// Packing plan for the direct/perfect strategies: per key column, a bias
/// (the column minimum) and a bit shift.
#[derive(Debug, Clone)]
pub struct KeyPacking {
    /// Per-column (bias, shift, bits).
    pub parts: Vec<(i64, u32, u32)>,
    /// Total packed bits.
    pub total_bits: u32,
}

impl KeyPacking {
    /// Plan a packing from per-column (min, max) ranges. Returns `None`
    /// when a range is unknown or the packed key exceeds 64 bits.
    pub fn plan(ranges: &[Option<(i64, i64)>]) -> Option<KeyPacking> {
        let mut parts = Vec::with_capacity(ranges.len());
        let mut shift = 0u32;
        for r in ranges {
            let (lo, hi) = (*r)?;
            let span = (hi as i128) - (lo as i128);
            debug_assert!(span >= 0);
            let bits = if span == 0 {
                0
            } else {
                128 - (span as u128).leading_zeros()
            };
            if shift + bits > 64 {
                return None;
            }
            parts.push((lo, shift, bits));
            shift += bits;
        }
        Some(KeyPacking {
            parts,
            total_bits: shift,
        })
    }

    /// Pack `rows` key tuples held column-wise (`cols[k][r]` is key
    /// column `k` of row `r`) into `out`, one column at a time.
    pub fn pack_columns(&self, cols: &[&[i64]], rows: usize, out: &mut Vec<u64>) {
        out.clear();
        out.resize(rows, 0);
        // A zero-bit part adds nothing, and may sit at shift 64.
        for (col, (bias, shift, _)) in cols.iter().zip(&self.parts).filter(|(_, p)| p.2 > 0) {
            for (o, v) in out.iter_mut().zip(&col[..rows]) {
                *o |= ((v.wrapping_sub(*bias)) as u64) << shift;
            }
        }
    }
}

const EMPTY: u32 = u32::MAX;

/// One open-addressing slot: a packed key and its group id (`EMPTY`
/// when free).
#[derive(Clone, Copy)]
struct Slot {
    key: u64,
    id: u32,
}

/// Packed key → group id by linear probing over a power-of-two table,
/// homed by Fibonacci (multiplicative) hashing and kept at most half
/// full.
struct PackedTable {
    slots: Vec<Slot>,
    /// `64 - log2(slots.len())`: the product's top bits pick the home.
    shift: u32,
    len: usize,
}

impl PackedTable {
    fn with_bits(bits: u32) -> PackedTable {
        PackedTable {
            slots: vec![Slot { key: 0, id: EMPTY }; 1 << bits],
            shift: 64 - bits,
            len: 0,
        }
    }

    /// The id stored for `key`, storing `next` first when it is absent.
    #[inline]
    fn get_or_insert(&mut self, key: u64, next: u32) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize;
        loop {
            let slot = self.slots[i];
            if slot.id == EMPTY {
                break;
            }
            if slot.key == key {
                return slot.id;
            }
            i = (i + 1) & mask;
        }
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow();
            return self.get_or_insert(key, next);
        }
        self.slots[i] = Slot { key, id: next };
        self.len += 1;
        next
    }

    fn grow(&mut self) {
        let bits = 64 - self.shift + 1;
        let old = std::mem::replace(self, PackedTable::with_bits(bits));
        for s in old.slots.into_iter().filter(|s| s.id != EMPTY) {
            self.get_or_insert(s.key, s.id);
        }
    }
}

/// How a [`GroupMap`] finds a key's group id.
enum Index {
    /// Direct 64K lookup table on the packed key.
    Direct {
        packing: KeyPacking,
        table: Vec<u32>,
    },
    /// Open addressing on the packed key.
    Perfect {
        packing: KeyPacking,
        table: PackedTable,
    },
    /// Collision-checked tuple hash.
    Collision { map: HashMap<Vec<i64>, u32> },
}

/// A group map: key tuple → dense group id, ids allocated in
/// first-insertion order. Keys are stored flat, row-major.
pub struct GroupMap {
    index: Index,
    keys: Vec<i64>,
    /// Key columns per group.
    width: usize,
    len: usize,
    /// Packed keys of the block being grouped.
    packed: Vec<u64>,
}

impl GroupMap {
    /// Build a map for the chosen strategy (`packing` required for the
    /// packed strategies).
    pub fn new(strategy: HashStrategy, packing: Option<KeyPacking>) -> GroupMap {
        let index = match strategy {
            HashStrategy::Direct64K => Index::Direct {
                packing: packing.expect("direct strategy needs a packing"),
                table: vec![EMPTY; 1 << 16],
            },
            HashStrategy::Perfect => Index::Perfect {
                packing: packing.expect("perfect strategy needs a packing"),
                table: PackedTable::with_bits(8),
            },
            HashStrategy::Collision => Index::Collision {
                map: HashMap::new(),
            },
        };
        GroupMap {
            index,
            keys: Vec::new(),
            width: 0,
            len: 0,
            packed: Vec::new(),
        }
    }

    /// Group ids for `rows` key tuples held column-wise, allocating new
    /// groups in row order; `out[r]` is row `r`'s id. The packed
    /// strategies pack the whole block one key column at a time before
    /// probing.
    pub fn group_ids(&mut self, cols: &[&[i64]], rows: usize, out: &mut Vec<u32>) {
        out.clear();
        out.reserve(rows);
        let GroupMap {
            index,
            keys,
            width,
            len,
            packed,
        } = self;
        *width = cols.len();
        let mut add = |r: usize| -> u32 {
            keys.extend(cols.iter().map(|c| c[r]));
            *len += 1;
            (*len - 1) as u32
        };
        match index {
            Index::Direct { packing, table } => {
                packing.pack_columns(cols, rows, packed);
                for (r, &p) in packed.iter().enumerate() {
                    let slot = &mut table[p as usize];
                    if *slot == EMPTY {
                        *slot = add(r);
                    }
                    out.push(*slot);
                }
            }
            Index::Perfect { packing, table } => {
                packing.pack_columns(cols, rows, packed);
                for (r, &p) in packed.iter().enumerate() {
                    let next = table.len as u32;
                    let g = table.get_or_insert(p, next);
                    if g == next {
                        add(r);
                    }
                    out.push(g);
                }
            }
            Index::Collision { map } => {
                let mut key = vec![0i64; cols.len()];
                for r in 0..rows {
                    for (k, c) in key.iter_mut().zip(cols) {
                        *k = c[r];
                    }
                    let g = match map.get(&key) {
                        Some(&g) => g,
                        None => {
                            let g = add(r);
                            map.insert(key.clone(), g);
                            g
                        }
                    };
                    out.push(g);
                }
            }
        }
    }

    /// The key of group `g`.
    pub fn key(&self, g: usize) -> &[i64] {
        &self.keys[g * self.width..(g + 1) * self.width]
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no group has been seen.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Group `a`/`b` in blocks of `block` rows; returns every row's id.
    fn group(m: &mut GroupMap, a: &[i64], b: &[i64], block: usize) -> Vec<u32> {
        let (mut all, mut ids) = (Vec::new(), Vec::new());
        for at in (0..a.len()).step_by(block) {
            let hi = (at + block).min(a.len());
            m.group_ids(&[&a[at..hi], &b[at..hi]], hi - at, &mut ids);
            all.extend_from_slice(&ids);
        }
        all
    }

    /// Ids allocated in first-occurrence order, as a reference.
    fn first_seen_ids(a: &[i64], b: &[i64]) -> (Vec<u32>, Vec<[i64; 2]>) {
        let mut seen = HashMap::new();
        let mut keys = Vec::new();
        let ids = a
            .iter()
            .zip(b)
            .map(|(&x, &y)| {
                *seen.entry([x, y]).or_insert_with(|| {
                    keys.push([x, y]);
                    keys.len() as u32 - 1
                })
            })
            .collect();
        (ids, keys)
    }

    fn exercise(mut m: GroupMap, a: &[i64], b: &[i64]) {
        let (want, keys) = first_seen_ids(a, b);
        assert_eq!(group(&mut m, a, b, 1024), want);
        assert_eq!(m.len(), keys.len());
        for (g, k) in keys.iter().enumerate() {
            assert_eq!(m.key(g), &k[..]);
        }
        // Regrouping finds the same ids and allocates none.
        assert_eq!(group(&mut m, a, b, 7), want);
        assert_eq!(m.len(), keys.len());
    }

    #[test]
    fn all_strategies_agree() {
        // 10 × 5 combinations but correlated: i%10 and i%5 give 10 groups.
        let a: Vec<i64> = (0..50).map(|i| i % 10).collect();
        let b: Vec<i64> = (0..50).map(|i| 100 + i % 5).collect();
        let packing = KeyPacking::plan(&[Some((0i64, 9)), Some((100, 104))]).unwrap();
        assert!(packing.total_bits <= 16);
        exercise(
            GroupMap::new(HashStrategy::Direct64K, Some(packing.clone())),
            &a,
            &b,
        );
        exercise(GroupMap::new(HashStrategy::Perfect, Some(packing)), &a, &b);
        exercise(GroupMap::new(HashStrategy::Collision, None), &a, &b);
    }

    /// Thousands of scattered groups: ids stay in first-occurrence order
    /// across blocks and through the perfect table's growth.
    #[test]
    fn many_groups_keep_first_occurrence_ids() {
        let a: Vec<i64> = (0..5000).map(|i| (i * 7919) % 3001 * 11).collect();
        let b: Vec<i64> = (0..5000).map(|i| -(i % 13)).collect();
        let packing = KeyPacking::plan(&[Some((0, 33_000)), Some((-12, 0))]).unwrap();
        assert!(packing.total_bits > 16);
        exercise(GroupMap::new(HashStrategy::Perfect, Some(packing)), &a, &b);
        exercise(GroupMap::new(HashStrategy::Collision, None), &a, &b);
    }

    #[test]
    fn packed_table_keeps_every_key_through_growth() {
        let mut t = PackedTable::with_bits(8);
        for k in 0..10_000u64 {
            assert_eq!(t.get_or_insert(k << 20, k as u32), k as u32);
        }
        assert!(t.slots.len() >= 2 * t.len);
        for k in 0..10_000u64 {
            assert_eq!(t.get_or_insert(k << 20, EMPTY - 1), k as u32);
        }
    }

    fn pack(p: &KeyPacking, key: &[i64]) -> u64 {
        let cols: Vec<&[i64]> = key.iter().map(std::slice::from_ref).collect();
        let mut out = Vec::new();
        p.pack_columns(&cols, 1, &mut out);
        out[0]
    }

    #[test]
    fn packing_plan_bounds() {
        // 2^32 span twice = 64 bits: fits exactly.
        let p =
            KeyPacking::plan(&[Some((0, (1i64 << 32) - 1)), Some((0, (1i64 << 32) - 1))]).unwrap();
        assert_eq!(p.total_bits, 64);
        // One more bit does not fit.
        assert!(KeyPacking::plan(&[Some((0, (1i64 << 32) - 1)), Some((0, 1i64 << 32)),]).is_none());
        // Unknown range defeats packing.
        assert!(KeyPacking::plan(&[None]).is_none());
    }

    #[test]
    fn packing_handles_negative_bias() {
        let p = KeyPacking::plan(&[Some((-50, 49))]).unwrap();
        assert_eq!(pack(&p, &[-50]), 0);
        assert_eq!(pack(&p, &[49]), 99);
    }

    #[test]
    fn constant_key_packs_to_zero_bits() {
        let p = KeyPacking::plan(&[Some((7, 7)), Some((0, 3))]).unwrap();
        assert_eq!(p.total_bits, 2);
        assert_eq!(pack(&p, &[7, 2]), 2);
        // After a full 64 bits a constant column sits at shift 64.
        let wide = Some((0, (1i64 << 32) - 1));
        let p = KeyPacking::plan(&[wide, wide, Some((7, 7))]).unwrap();
        assert_eq!(p.parts[2], (7, 64, 0));
        assert_eq!(pack(&p, &[1, 2, 7]), 1 | 2 << 32);
    }
}
