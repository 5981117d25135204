//! LSD radix sort on packed integer keys, with an adaptive
//! profitability gate.
//!
//! The local phases of the distributed sorts — and the dedup prefilter of
//! `REDISTRIBUTE` (Sec. VI-B) — order edges under keys that pack into
//! wide integers (`kamsta-graph`'s full lexicographic `(u, v, w, id)`
//! key, the `(u, v)` pair key, the unique-weight `(w, id)`). The engine
//! computes the *sorted order* of a slice — the input indices, ascending
//! by key — and leaves moving the elements to the caller: the in-place
//! sorters gather along it, the prefilter only walks it
//! ([`radix_order_by_key`]). An OR/AND fold finds the bytes that
//! actually vary; they are compacted into a narrow `u32`/`u64`/`u128`
//! so the stable counting passes move small records, and the same scan
//! skips re-sorting already-ordered input (the prefilter's output, which
//! the distributed sort sees next) entirely.
//!
//! A counting pass costs roughly three comparison levels' worth of
//! memory traffic per element, so radix only wins when the active key
//! width is small relative to `log n` — vertex-id / edge-id sequences
//! and late-round component labels, not full-entropy first-round edge
//! keys. The sorters measure exactly that and fall back to a comparison
//! sort otherwise (callers whose keys cannot be packed at all never
//! reach the radix path — [`RadixKey`] is only implemented for packable
//! keys). The returned pass count is `0` whenever the comparison path
//! ran, which callers use for γ-cost charging.

/// A sort key with byte-wise radix access. `Ord` must equal the
/// big-endian byte order: byte `BYTES - 1` is the most significant.
///
/// The bit-wise fold operations power exact constant-byte detection in
/// one cheap word-op pass: byte `b` is constant across the input iff the
/// OR-fold and AND-fold of all keys agree on it.
pub trait RadixKey: Copy + Ord {
    /// Number of 8-bit digits in the key.
    const BYTES: usize;
    /// Digits `i..i + 8` as one little-endian word (`i = 0` the least
    /// significant digit), zero beyond digit `BYTES - 1` — a run of
    /// adjacent digits, one field of a packed key, in one access.
    fn radix_word(&self, i: usize) -> u64;
    /// Digit `i`.
    #[inline(always)]
    fn radix_byte(&self, i: usize) -> u8 {
        self.radix_word(i) as u8
    }
    /// Byte-wise (in fact bit-wise) OR of two keys.
    fn bit_or(a: Self, b: Self) -> Self;
    /// Byte-wise (in fact bit-wise) AND of two keys.
    fn bit_and(a: Self, b: Self) -> Self;
}

macro_rules! radix_key_uint {
    ($t:ty, $bytes:expr) => {
        impl RadixKey for $t {
            const BYTES: usize = $bytes;
            #[inline(always)]
            fn radix_word(&self, i: usize) -> u64 {
                (self >> (8 * i)) as u64
            }
            #[inline(always)]
            fn bit_or(a: Self, b: Self) -> Self {
                a | b
            }
            #[inline(always)]
            fn bit_and(a: Self, b: Self) -> Self {
                a & b
            }
        }
    };
}

radix_key_uint!(u32, 4);
radix_key_uint!(u64, 8);
radix_key_uint!(u128, 16);

/// Lexicographic pair `(hi, lo)`: `lo` supplies the low 16 digits.
impl RadixKey for (u128, u128) {
    const BYTES: usize = 32;
    #[inline(always)]
    fn radix_word(&self, i: usize) -> u64 {
        if i >= 16 {
            return (self.0 >> (8 * (i - 16))) as u64;
        }
        let lo = (self.1 >> (8 * i)) as u64;
        if i > 8 {
            // Fewer than eight digits of `lo` are left: `hi` fills up.
            lo | (self.0 as u64) << (8 * (16 - i))
        } else {
            lo
        }
    }
    #[inline(always)]
    fn bit_or(a: Self, b: Self) -> Self {
        (a.0 | b.0, a.1 | b.1)
    }
    #[inline(always)]
    fn bit_and(a: Self, b: Self) -> Self {
        (a.0 & b.0, a.1 & b.1)
    }
}

/// Lexicographic pair `(hi, lo)` with a 64-bit low word.
impl RadixKey for (u128, u64) {
    const BYTES: usize = 24;
    #[inline(always)]
    fn radix_word(&self, i: usize) -> u64 {
        match i {
            0 => self.1,
            1..=7 => self.1 >> (8 * i) | (self.0 as u64) << (8 * (8 - i)),
            _ => (self.0 >> (8 * (i - 8))) as u64,
        }
    }
    #[inline(always)]
    fn bit_or(a: Self, b: Self) -> Self {
        (a.0 | b.0, a.1 | b.1)
    }
    #[inline(always)]
    fn bit_and(a: Self, b: Self) -> Self {
        (a.0 & b.0, a.1 & b.1)
    }
}

/// Below this length the comparison sort's constant factor wins.
const SMALL_SORT_CUTOFF: usize = 96;

/// How a sort call was executed — the caller's basis for γ-cost
/// charging (a counting pass, a comparison level and a sortedness scan
/// all move different amounts of data per element).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOutcome {
    /// The input was already sorted: one scan, nothing moved.
    AlreadySorted,
    /// Radix path ran with this many counting passes.
    Radix(usize),
    /// Comparison fallback ran (small slice, unprofitable key entropy,
    /// or a key too wide to compact): `n log n` comparisons.
    Comparison,
}

impl SortOutcome {
    /// Counting passes performed (0 unless the radix path ran).
    pub fn passes(&self) -> usize {
        match self {
            SortOutcome::Radix(p) => *p,
            _ => 0,
        }
    }
}

/// A counting pass moves each record once through a 256-way scatter —
/// measured at roughly `RADIX_PASS_COST_IN_LEVELS` comparison levels of
/// a pdqsort on the same data. Radix engages only when its pass count
/// undercuts the comparison sort's `log n` levels by that factor.
const RADIX_PASS_COST_IN_LEVELS: usize = 3;

/// True if a radix sort with `passes` counting passes beats the
/// comparison sort's `log n` levels on `n` elements.
#[inline]
fn radix_profitable(n: usize, passes: usize) -> bool {
    passes * RADIX_PASS_COST_IN_LEVELS <= kamsta_comm::ceil_log2(n.max(2)) as usize
}

/// A narrow integer the active bytes of a wide key are compacted into
/// before the counting passes — with the `u32` input index, the passes
/// then move 8-, 16- or 32-byte records, whatever the element size.
trait CompactKey: Copy + Default + Ord {
    const BYTES: usize;
    /// OR `word` in at byte offset `slot` (the caller masked it to fit).
    fn or_word(&mut self, slot: usize, word: u64);
    fn digit8(&self, d: usize) -> usize;
}

macro_rules! compact_key_uint {
    ($t:ty, $bytes:expr) => {
        impl CompactKey for $t {
            const BYTES: usize = $bytes;
            #[inline(always)]
            fn or_word(&mut self, slot: usize, word: u64) {
                *self |= (word as $t) << (8 * slot);
            }
            #[inline(always)]
            fn digit8(&self, d: usize) -> usize {
                ((self >> (8 * d)) & 0xFF) as usize
            }
        }
    };
}

compact_key_uint!(u32, 4);
compact_key_uint!(u64, 8);
compact_key_uint!(u128, 16);

/// The engine tags every record with a `u32` input index and counts
/// digits into `u32` histograms; a slice longer than `u32::MAX` would be
/// permuted wrongly, so the engine's planner refuses it with this error. The
/// in-place sorters turn the refusal into their comparison path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TooLongForRadix {
    /// Length of the refused slice.
    pub len: usize,
}

impl std::fmt::Display for TooLongForRadix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "slice of {} elements exceeds the radix engine's u32 index range",
            self.len
        )
    }
}

impl std::error::Error for TooLongForRadix {}

/// The one length guard of the engine (see [`TooLongForRadix`]).
fn check_indexable(len: usize) -> Result<(), TooLongForRadix> {
    if len > u32::MAX as usize {
        return Err(TooLongForRadix { len });
    }
    Ok(())
}

/// What one scan over the keys of the kept elements learns: how many
/// there are, whether they are already in order, and the OR/AND folds
/// that tell constant bytes from active ones. `join` is associative, so
/// chunk folds combined in chunk order *equal* the sequential scan —
/// they are not approximations of it.
struct Fold<K> {
    kept: usize,
    sorted: bool,
    ors: K,
    ands: K,
    first: K,
    last: K,
}

impl<K: RadixKey> Fold<K> {
    fn of(mut keys: impl Iterator<Item = K>) -> Option<Self> {
        let first = keys.next()?;
        let mut f = Fold {
            kept: 1,
            sorted: true,
            ors: first,
            ands: first,
            first,
            last: first,
        };
        for k in keys {
            f.kept += 1;
            f.sorted &= f.last <= k;
            f.last = k;
            f.ors = K::bit_or(f.ors, k);
            f.ands = K::bit_and(f.ands, k);
        }
        Some(f)
    }

    fn join(self, right: Self) -> Self {
        Fold {
            kept: self.kept + right.kept,
            sorted: self.sorted && right.sorted && self.last <= right.first,
            ors: K::bit_or(self.ors, right.ors),
            ands: K::bit_and(self.ands, right.ands),
            first: self.first,
            last: right.last,
        }
    }
}

/// How a slice is going to be ordered — decided once, before anything
/// is allocated, and identically by the sequential and the parallel
/// entry points (the fold they hand in is the same value).
enum Plan {
    /// The kept elements are already in key order (or fewer than two).
    Sorted,
    /// Comparison sort: small slice, unprofitable key entropy, or more
    /// than 16 active bytes.
    Compare,
    /// LSD passes over these key bytes, on `kept` compacted records.
    Radix { active: Vec<usize>, kept: usize },
}

fn plan<K: RadixKey>(
    len: usize,
    fold: impl FnOnce() -> Option<Fold<K>>,
) -> Result<Plan, TooLongForRadix> {
    check_indexable(len)?;
    if len < 2 {
        return Ok(Plan::Sorted);
    }
    if len <= SMALL_SORT_CUTOFF {
        return Ok(Plan::Compare);
    }
    // One streaming pass: sortedness check + OR/AND folds, nothing
    // allocated before the engage-or-fall-back decision. Already-sorted
    // inputs are common on the hot path (the dedup prefilter hands its
    // sorted output to the distributed sort).
    let Some(f) = fold() else {
        return Ok(Plan::Sorted);
    };
    if f.sorted {
        return Ok(Plan::Sorted);
    }
    let active: Vec<usize> = (0..K::BYTES)
        .filter(|&b| f.ors.radix_byte(b) != f.ands.radix_byte(b))
        .collect();
    if !radix_profitable(f.kept, active.len()) || active.len() > <u128 as CompactKey>::BYTES {
        return Ok(Plan::Compare);
    }
    Ok(Plan::Radix {
        active,
        kept: f.kept,
    })
}

/// How [`radix_order_by_key`] would run on a slice of `len` elements
/// whose kept keys, in input order, are `keys`, and how many keys there
/// are — the plan without the order. The keys are consumed to the end
/// whatever the plan, so a caller may observe them on the way.
pub(crate) fn order_outcome<K: RadixKey>(
    len: usize,
    keys: impl Iterator<Item = K>,
) -> Result<(usize, SortOutcome), TooLongForRadix> {
    let fold = Fold::of(keys);
    let kept = fold.as_ref().map_or(0, |f| f.kept);
    let outcome = match plan(len, || fold)? {
        Plan::Sorted => SortOutcome::AlreadySorted,
        Plan::Compare => SortOutcome::Comparison,
        Plan::Radix { active, .. } => SortOutcome::Radix(active.len()),
    };
    Ok((kept, outcome))
}

/// How the in-place sorters run on a slice of `len` elements that is
/// already sorted: the plan they reach when the sortedness scan finds
/// the keys in order, without the scan.
pub(crate) fn sorted_outcome(len: usize) -> SortOutcome {
    match plan::<u32>(len, || None) {
        Ok(Plan::Sorted) => SortOutcome::AlreadySorted,
        Ok(Plan::Compare | Plan::Radix { .. }) | Err(TooLongForRadix { .. }) => {
            SortOutcome::Comparison
        }
    }
}

/// A run of up to eight adjacent active key bytes — one field of a
/// packed key, typically — and the compacted-key byte it lands on.
struct ByteRun {
    src: usize,
    slot: usize,
    mask: u64,
}

/// The active bytes (ascending) as runs of adjacent ones: compaction
/// then costs one shift-and-mask per run instead of one per byte.
fn byte_runs(active: &[usize]) -> Vec<ByteRun> {
    let mut runs: Vec<ByteRun> = Vec::new();
    let mut len = 0;
    for (slot, &b) in active.iter().enumerate() {
        match runs.last_mut() {
            Some(run) if run.src + len == b && len < 8 => {
                len += 1;
                run.mask = run.mask << 8 | 0xFF;
            }
            _ => {
                len = 1;
                runs.push(ByteRun {
                    src: b,
                    slot,
                    mask: 0xFF,
                });
            }
        }
    }
    runs
}

#[inline(always)]
fn compact<K: RadixKey, C: CompactKey>(k: K, runs: &[ByteRun]) -> C {
    let mut c = C::default();
    for run in runs {
        c.or_word(run.slot, k.radix_word(run.src) & run.mask);
    }
    c
}

/// Exclusive prefix sums of a digit histogram: where each bucket starts.
fn bucket_starts(hist: &[u32; 256]) -> [usize; 256] {
    let mut acc = 0usize;
    let mut starts = [0usize; 256];
    for (s, &h) in starts.iter_mut().zip(hist.iter()) {
        *s = acc;
        acc += h as usize;
    }
    starts
}

/// One stable counting pass on digit `d`: `src` → `dst`.
fn scatter_pass<C: CompactKey>(
    src: &[(C, u32)],
    dst: &mut [(C, u32)],
    hist: &[u32; 256],
    d: usize,
) {
    let mut pos = bucket_starts(hist);
    for &(c, i) in src {
        let digit = c.digit8(d);
        dst[pos[digit]] = (c, i);
        pos[digit] += 1;
    }
}

/// Stable LSD counting sort of the `(compacted key, input index)`
/// records of the kept elements; returns their input indices in key
/// order. Each key is derived once, every digit histogram is filled
/// while the records are built, and the last pass emits the bare
/// indices.
fn sort_compact<T, K: RadixKey, C: CompactKey>(
    data: &[T],
    key_of: impl Fn(&T) -> Option<K>,
    active: &[usize],
    kept: usize,
) -> Vec<u32> {
    let last = active.len() - 1;
    let runs = byte_runs(active);
    let mut hists = vec![[0u32; 256]; active.len()];
    let mut src: Vec<(C, u32)> = Vec::with_capacity(kept);
    for (i, x) in data.iter().enumerate() {
        if let Some(k) = key_of(x) {
            let c: C = compact(k, &runs);
            for (d, h) in hists.iter_mut().enumerate() {
                h[c.digit8(d)] += 1;
            }
            src.push((c, i as u32));
        }
    }
    if last > 0 {
        let mut dst = vec![(C::default(), 0u32); kept];
        for (d, hist) in hists[..last].iter().enumerate() {
            scatter_pass(&src, &mut dst, hist, d);
            std::mem::swap(&mut src, &mut dst);
        }
    }
    let mut pos = bucket_starts(&hists[last]);
    let mut order = vec![0u32; kept];
    for &(c, i) in &src {
        let digit = c.digit8(last);
        order[pos[digit]] = i;
        pos[digit] += 1;
    }
    order
}

/// `(key, input index)` records of the kept elements.
fn keyed<'a, T, K>(
    data: &'a [T],
    key_of: &'a impl Fn(&T) -> Option<K>,
) -> impl Iterator<Item = (K, u32)> + 'a {
    data.iter()
        .enumerate()
        .filter_map(move |(i, x)| key_of(x).map(|k| (k, i as u32)))
}

fn indices<K>(records: impl IntoIterator<Item = (K, u32)>) -> Vec<u32> {
    records.into_iter().map(|(_, i)| i).collect()
}

fn radix_order<T, K: RadixKey>(
    data: &[T],
    key_of: impl Fn(&T) -> Option<K>,
    active: &[usize],
    kept: usize,
) -> Vec<u32> {
    if active.len() <= <u32 as CompactKey>::BYTES {
        sort_compact::<T, K, u32>(data, key_of, active, kept)
    } else if active.len() <= <u64 as CompactKey>::BYTES {
        sort_compact::<T, K, u64>(data, key_of, active, kept)
    } else {
        sort_compact::<T, K, u128>(data, key_of, active, kept)
    }
}

/// The input indices of the elements `key_of` keeps (`Some`), ascending
/// by key, ties in input order — the permutation a stable sort by
/// `key_of` applies to the kept elements — and how it was computed, for
/// γ-cost charging. Nothing is moved: a caller that wants the sorted
/// sequence gathers `data[i]` along the order ([`radix_sort_by_key`] is
/// exactly that); a caller that needs one thing *per key run* (the
/// `REDISTRIBUTE` prefilter keeps each run's minimum) walks it instead.
///
/// The streaming OR/AND fold finds the bytes that actually vary; they
/// are compacted into the narrowest of `u32` / `u64` / `u128` that
/// holds them, so the counting passes move narrow records. Small
/// slices, unprofitable entropy and keys with more than 16 active bytes
/// — entropy a counting sort cannot beat comparisons on —
/// comparison-sort `(key, index)` records instead, deriving each key
/// once. Slices longer than `u32::MAX` are refused.
pub fn radix_order_by_key<T, K: RadixKey>(
    data: &[T],
    key_of: impl Fn(&T) -> Option<K>,
) -> Result<(Vec<u32>, SortOutcome), TooLongForRadix> {
    let fold = || Fold::of(data.iter().filter_map(&key_of));
    Ok(match plan(data.len(), fold)? {
        Plan::Sorted => (indices(keyed(data, &key_of)), SortOutcome::AlreadySorted),
        Plan::Compare => {
            let mut records: Vec<(K, u32)> = keyed(data, &key_of).collect();
            records.sort_unstable();
            (indices(records), SortOutcome::Comparison)
        }
        Plan::Radix { active, kept } => (
            radix_order(data, &key_of, &active, kept),
            SortOutcome::Radix(active.len()),
        ),
    })
}

/// Sort `data` ascending by `key_of` with an LSD radix sort, falling
/// back to `sort_unstable_by_key` when radix cannot win. Returns how
/// the sort was executed ([`SortOutcome`]) for γ-cost charging.
///
/// The radix path is the order of [`radix_order_by_key`] followed by a
/// gather, and stable; the comparison fallback sorts in place and is
/// not — callers needing deterministic results use keys that are total
/// orders (every key in this workspace ends in a unique edge id), for
/// which the distinction is unobservable.
pub fn radix_sort_by_key<T: Copy, K: RadixKey>(
    data: &mut [T],
    key_of: impl Fn(&T) -> K,
) -> SortOutcome {
    let some_key = |x: &T| Some(key_of(x));
    let fold = || Fold::of(data.iter().filter_map(some_key));
    match plan(data.len(), fold) {
        Ok(Plan::Sorted) => SortOutcome::AlreadySorted,
        Ok(Plan::Radix { active, kept }) => {
            let order = radix_order(data, some_key, &active, kept);
            let gathered: Vec<T> = order.iter().map(|&i| data[i as usize]).collect();
            data.copy_from_slice(&gathered);
            SortOutcome::Radix(active.len())
        }
        Ok(Plan::Compare) | Err(TooLongForRadix { .. }) => {
            data.sort_unstable_by_key(key_of);
            SortOutcome::Comparison
        }
    }
}

/// Sort a key sequence itself; same execution and fallback rules as
/// [`radix_sort_by_key`] with the identity key.
pub fn radix_sort_keys<K: RadixKey>(data: &mut [K]) -> SortOutcome {
    radix_sort_by_key(data, |&k| k)
}

/// Input size below which the parallel radix machinery is pure
/// overhead and the `par_*` entry points delegate to the sequential
/// ones. The parallel body pays per-chunk 256-bucket histogram
/// passes plus an extra gather; below ~2^16 records the sequential LSD
/// loop wins even with real cores behind the pool (published parallel
/// radix sorters put the crossover near 10^5 elements), and on an
/// oversubscribed host the gap is the whole overhead — the BENCH
/// hybrid rows gate it.
const PAR_RADIX_CUTOFF: usize = 65_536;

/// Chunk length for the parallel fold / count / scatter passes.
const PAR_RADIX_CHUNK: usize = 8192;

fn par_engages(len: usize) -> bool {
    rayon::current_num_threads() > 1 && len >= PAR_RADIX_CUTOFF
}

/// Raw mutable pointer shared across scatter chunks; sound because
/// every `(chunk, digit)` cell is a private output range.
struct SendMutPtr<T>(*mut T);
unsafe impl<T: Send> Send for SendMutPtr<T> {}
unsafe impl<T: Send> Sync for SendMutPtr<T> {}

/// The [`Fold`] of the kept keys from per-chunk folds joined in chunk
/// order — equal to the sequential scan's, whatever the chunk count.
fn par_fold<T: Sync, K: RadixKey + Send>(
    data: &[T],
    key_of: &(impl Fn(&T) -> Option<K> + Sync),
) -> Option<Fold<K>> {
    use rayon::prelude::*;
    let chunks = data.len().div_ceil(PAR_RADIX_CHUNK);
    let folds: Vec<Option<Fold<K>>> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * PAR_RADIX_CHUNK;
            let hi = data.len().min(lo + PAR_RADIX_CHUNK);
            Fold::of(data[lo..hi].iter().filter_map(key_of))
        })
        .collect();
    folds.into_iter().flatten().reduce(Fold::join)
}

/// Width-parallel [`radix_order_by_key`]: same decisions, same
/// [`SortOutcome`] (hence identical γ charges), the identical order —
/// for every rayon width, including 1.
///
/// How each stage stays exact:
/// - The engage-or-fall-back pass becomes per-chunk folds joined in
///   chunk order ([`par_fold`]), so the decision quantities are *equal*
///   to the sequential scan's.
/// - The radix body partitions the keyed records by the most
///   significant active digit using the same deterministic
///   count → per-(chunk, digit) offsets → scatter plan as the
///   distributed exchanges: chunks are contiguous input ranges scattered
///   in chunk order, so the partition is stable for any chunk count.
///   Each of the 256 partitions is then LSD-sorted over the remaining
///   digits independently (in parallel across partitions). A stable
///   MSD split followed by stable LSD passes on each part is the same
///   permutation as the sequential all-digits LSD sort, so the order
///   is identical and the pass count (`1 + (active - 1) = active`)
///   charges identically.
/// - The comparison path sorts `(key, index)` records, a total order.
pub(crate) fn par_radix_order_by_key<T: Sync, K: RadixKey + Send + Sync>(
    data: &[T],
    key_of: impl Fn(&T) -> Option<K> + Sync,
) -> Result<(Vec<u32>, SortOutcome), TooLongForRadix> {
    use rayon::prelude::*;
    if !par_engages(data.len()) {
        return radix_order_by_key(data, key_of);
    }
    Ok(match plan(data.len(), || par_fold(data, &key_of))? {
        Plan::Sorted => (indices(keyed(data, &key_of)), SortOutcome::AlreadySorted),
        Plan::Compare => {
            let mut records: Vec<(K, u32)> = data
                .par_iter()
                .enumerate()
                .filter_map(|(i, x)| key_of(x).map(|k| (k, i as u32)))
                .collect();
            records.par_sort_unstable();
            (indices(records), SortOutcome::Comparison)
        }
        Plan::Radix { active, .. } => (
            par_radix_order(data, &key_of, &active),
            SortOutcome::Radix(active.len()),
        ),
    })
}

/// Width-parallel [`radix_sort_by_key`]: the width-parallel
/// [`radix_order_by_key`] followed by a parallel gather — same
/// [`SortOutcome`], bit-identical output at every rayon width. The
/// comparison fallback runs `par_sort_unstable_by_key`; as with the
/// sequential fallback, cross-width determinism there relies on the
/// workspace's total-order keys.
pub fn par_radix_sort_by_key<T: Copy + Send + Sync, K: RadixKey + Send>(
    data: &mut [T],
    key_of: impl Fn(&T) -> K + Sync,
) -> SortOutcome {
    use rayon::prelude::*;
    if !par_engages(data.len()) {
        return radix_sort_by_key(data, key_of);
    }
    let some_key = |x: &T| Some(key_of(x));
    match plan(data.len(), || par_fold(data, &some_key)) {
        Ok(Plan::Sorted) => SortOutcome::AlreadySorted,
        Ok(Plan::Radix { active, .. }) => {
            let order = par_radix_order(data, &some_key, &active);
            let gathered: Vec<T> = order.par_iter().map(|&i| data[i as usize]).collect();
            data.copy_from_slice(&gathered);
            SortOutcome::Radix(active.len())
        }
        Ok(Plan::Compare) | Err(TooLongForRadix { .. }) => {
            data.par_sort_unstable_by_key(&key_of);
            SortOutcome::Comparison
        }
    }
}

fn par_radix_order<T: Sync, K: RadixKey>(
    data: &[T],
    key_of: &(impl Fn(&T) -> Option<K> + Sync),
    active: &[usize],
) -> Vec<u32> {
    if active.len() <= <u32 as CompactKey>::BYTES {
        par_sort_compact::<T, K, u32>(data, key_of, active)
    } else if active.len() <= <u64 as CompactKey>::BYTES {
        par_sort_compact::<T, K, u64>(data, key_of, active)
    } else {
        par_sort_compact::<T, K, u128>(data, key_of, active)
    }
}

/// Parallel body of [`par_radix_order_by_key`]: build the kept
/// elements' keyed records, stable-partition them by the most
/// significant active digit, LSD-sort each partition over the remaining
/// digits, return the input-index order.
fn par_sort_compact<T, K, C>(
    data: &[T],
    key_of: &(impl Fn(&T) -> Option<K> + Sync),
    active: &[usize],
) -> Vec<u32>
where
    T: Sync,
    K: RadixKey,
    C: CompactKey + Send + Sync,
{
    use rayon::prelude::*;
    let runs = byte_runs(active);
    let keyed: Vec<(C, u32)> = data
        .par_iter()
        .enumerate()
        .filter_map(|(i, x)| key_of(x).map(|k| (compact(k, &runs), i as u32)))
        .collect();
    let n = keyed.len();
    // Stable MSD partition: per-chunk histograms of the top digit …
    let top = active.len() - 1;
    let chunks = n.div_ceil(PAR_RADIX_CHUNK);
    let hists: Vec<[u32; 256]> = (0..chunks)
        .into_par_iter()
        .map(|c| {
            let lo = c * PAR_RADIX_CHUNK;
            let hi = n.min(lo + PAR_RADIX_CHUNK);
            let mut h = [0u32; 256];
            for (k, _) in &keyed[lo..hi] {
                h[k.digit8(top)] += 1;
            }
            h
        })
        .collect();
    // … combined into partition bounds and per-(chunk, digit) offsets …
    let mut bounds = [0usize; 257];
    for h in &hists {
        for (d, &c) in h.iter().enumerate() {
            bounds[d + 1] += c as usize;
        }
    }
    for d in 0..256 {
        bounds[d + 1] += bounds[d];
    }
    let mut starts = vec![0usize; chunks * 256];
    let mut run: Vec<usize> = bounds[..256].to_vec();
    for (c, h) in hists.iter().enumerate() {
        for d in 0..256 {
            starts[c * 256 + d] = run[d];
            run[d] += h[d] as usize;
        }
    }
    // … then a chunk-ordered scatter into disjoint ranges.
    let mut part: Vec<(C, u32)> = vec![(C::default(), 0u32); n];
    let part_ptr = SendMutPtr(part.as_mut_ptr());
    (0..chunks).into_par_iter().for_each(|c| {
        let _ = &part_ptr;
        let lo = c * PAR_RADIX_CHUNK;
        let hi = n.min(lo + PAR_RADIX_CHUNK);
        let mut pos = starts[c * 256..(c + 1) * 256].to_vec();
        for &(k, i) in &keyed[lo..hi] {
            let d = k.digit8(top);
            unsafe { part_ptr.0.add(pos[d]).write((k, i)) };
            pos[d] += 1;
        }
    });
    drop(keyed);
    // LSD passes over the remaining digits, independent per partition.
    if top > 0 {
        let part_ptr = SendMutPtr(part.as_mut_ptr());
        (0..256usize).into_par_iter().for_each(|d| {
            let _ = &part_ptr;
            let (lo, hi) = (bounds[d], bounds[d + 1]);
            if hi - lo > 1 {
                let bucket = unsafe { std::slice::from_raw_parts_mut(part_ptr.0.add(lo), hi - lo) };
                lsd_passes(bucket, top);
            }
        });
    }
    part.into_par_iter().map(|(_, i)| i).collect()
}

/// Sequential stable LSD counting passes over digits `0..digits` of a
/// keyed-record slice (the per-partition tail of the parallel sorter):
/// one scan fills every digit histogram, then the passes alternate
/// between the slice and one scratch buffer.
fn lsd_passes<C: CompactKey>(records: &mut [(C, u32)], digits: usize) {
    let mut hists = vec![[0u32; 256]; digits];
    for (c, _) in records.iter() {
        for (d, h) in hists.iter_mut().enumerate() {
            h[c.digit8(d)] += 1;
        }
    }
    let mut scratch = vec![(C::default(), 0u32); records.len()];
    let (mut src, mut dst) = (&mut *records, &mut scratch[..]);
    for (d, hist) in hists.iter().enumerate() {
        scatter_pass(src, dst, hist, d);
        std::mem::swap(&mut src, &mut dst);
    }
    if digits % 2 == 1 {
        // An odd number of swaps leaves the result in the scratch buffer.
        dst.copy_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The SplitMix64 stream: the finalizer over the state before its
    /// increment, which the finalizer adds itself.
    fn splitmix(state: &mut u64) -> u64 {
        let z = kamsta_comm::fault::splitmix64(*state);
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z
    }

    #[test]
    fn sorts_u64_like_comparison_sort() {
        let mut s = 7u64;
        let mut v: Vec<u64> = (0..5000).map(|_| splitmix(&mut s) % 1_000_003).collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        let outcome = radix_sort_keys(&mut v);
        assert!(
            matches!(outcome, SortOutcome::Radix(p) if p > 0),
            "large input must take the radix path: {outcome:?}"
        );
        assert_eq!(v, expect);
    }

    #[test]
    fn skips_constant_bytes() {
        // Keys fit in 16 bits: only 2 of the 8 byte passes may run.
        let mut s = 11u64;
        let mut v: Vec<u64> = (0..4096).map(|_| splitmix(&mut s) % 65_536).collect();
        let outcome = radix_sort_keys(&mut v);
        assert!(
            matches!(outcome, SortOutcome::Radix(p) if p <= 2),
            "constant high bytes must be skipped: {outcome:?}"
        );
        assert!(v.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn wide_tuple_keys_match_tuple_order() {
        let mut s = 13u64;
        let mut v: Vec<(u128, u64)> = (0..3000)
            .map(|_| {
                (
                    (splitmix(&mut s) as u128) << 64 | splitmix(&mut s) as u128,
                    splitmix(&mut s),
                )
            })
            .collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort_keys(&mut v);
        assert_eq!(v, expect);
        let mut w: Vec<(u128, u128)> = (0..3000)
            .map(|_| {
                (
                    splitmix(&mut s) as u128,
                    (splitmix(&mut s) as u128) << 64 | splitmix(&mut s) as u128,
                )
            })
            .collect();
        let mut expect = w.clone();
        expect.sort_unstable();
        radix_sort_keys(&mut w);
        assert_eq!(w, expect);
    }

    #[test]
    fn by_key_sorts_payloads_stably() {
        // Payload (k, tag); key only looks at k — equal keys must keep
        // insertion order (stability).
        let mut s = 17u64;
        let items: Vec<(u32, u32)> = (0..2000)
            .map(|i| ((splitmix(&mut s) % 50) as u32, i as u32))
            .collect();
        let mut sorted = items.clone();
        let outcome = radix_sort_by_key(&mut sorted, |&(k, _)| k);
        assert!(matches!(outcome, SortOutcome::Radix(p) if p > 0));
        let mut expect = items;
        expect.sort_by_key(|&(k, _)| k); // std stable sort
        assert_eq!(sorted, expect);
    }

    #[test]
    fn small_inputs_use_comparison_fallback() {
        let mut v: Vec<u64> = vec![5, 3, 9, 1];
        let outcome = radix_sort_keys(&mut v);
        assert_eq!(outcome, SortOutcome::Comparison);
        assert_eq!(v, vec![1, 3, 5, 9]);
    }

    #[test]
    fn slices_past_the_u32_index_range_are_refused_not_truncated() {
        // The predicate alone: no such slice is allocated.
        assert_eq!(check_indexable(0), Ok(()));
        assert_eq!(check_indexable(u32::MAX as usize), Ok(()));
        let len = u32::MAX as usize + 1;
        assert_eq!(check_indexable(len), Err(TooLongForRadix { len }));
        // The plan is where it is applied, before the keys are looked at …
        let fold = || -> Option<Fold<u64>> { unreachable!("refused before the fold") };
        assert!(matches!(plan(len, fold), Err(TooLongForRadix { .. })));
        // … and an accepted length still reaches the fold.
        assert!(matches!(plan::<u64>(1000, || None), Ok(Plan::Sorted)));
    }

    #[test]
    fn radix_word_reads_eight_digits_from_any_offset() {
        // Every key type against its own digit definition: digit i is
        // byte i of the little-endian image of the whole key.
        fn check<K: RadixKey>(k: K, image: &[u8]) {
            assert_eq!(image.len(), K::BYTES);
            for i in 0..K::BYTES {
                let mut expect = [0u8; 8];
                let take = (K::BYTES - i).min(8);
                expect[..take].copy_from_slice(&image[i..i + take]);
                assert_eq!(k.radix_word(i), u64::from_le_bytes(expect), "offset {i}");
                assert_eq!(k.radix_byte(i), image[i], "digit {i}");
            }
        }
        let hi = 0x0f1e_2d3c_4b5a_6978_8796_a5b4_c3d2_e1f0u128;
        let lo = 0x0011_2233_4455_6677_8899_aabb_ccdd_eeffu128;
        check(lo as u32, &(lo as u32).to_le_bytes());
        check(lo as u64, &(lo as u64).to_le_bytes());
        check(lo, &lo.to_le_bytes());
        check((hi, lo), &[lo.to_le_bytes(), hi.to_le_bytes()].concat());
        let image = [&(lo as u64).to_le_bytes()[..], &hi.to_le_bytes()[..]].concat();
        check((hi, lo as u64), &image);
    }

    #[test]
    fn adjacent_active_bytes_compact_as_one_run() {
        // The pair key of a 2^16-label graph: v in bytes 0–1, u in 8–9.
        let runs = byte_runs(&[0, 1, 8, 9]);
        assert_eq!(runs.len(), 2);
        let k = (0xabcdu128 << 64) | 0x1234;
        assert_eq!(compact::<u128, u32>(k, &runs), 0xabcd_1234);
        // A run longer than one word is split; lone bytes stay lone.
        let active: Vec<usize> = (2..13).chain([15]).collect();
        let runs = byte_runs(&active);
        assert_eq!(runs.len(), 3);
        let k = u128::from_le_bytes(std::array::from_fn(|i| i as u8 + 1));
        let mut expect = [0u8; 16];
        for (slot, &b) in active.iter().enumerate() {
            expect[slot] = b as u8 + 1;
        }
        assert_eq!(compact::<u128, u128>(k, &runs), u128::from_le_bytes(expect));
    }

    /// Reference order: kept indices, stably sorted by key.
    fn stable_order<T, K: Ord>(data: &[T], key_of: impl Fn(&T) -> Option<K>) -> Vec<u32> {
        let mut idx: Vec<u32> = (0..data.len() as u32)
            .filter(|&i| key_of(&data[i as usize]).is_some())
            .collect();
        idx.sort_by_key(|&i| key_of(&data[i as usize]));
        idx
    }

    #[test]
    fn order_is_the_stable_sort_permutation_on_every_path() {
        let mut s = 37u64;
        // (slice length, key range): small slice, radix with u32 / u64 /
        // u128 records, and full-entropy keys the gate sends to the
        // comparison path.
        let cases = [
            (60, 1 << 20, SortOutcome::Comparison),
            (40_000, 1 << 24, SortOutcome::Radix(3)),
            (40_000, 1 << 40, SortOutcome::Radix(5)),
            (1 << 20, 1 << 48, SortOutcome::Radix(6)),
            (40_000, u128::MAX, SortOutcome::Comparison),
        ];
        for (n, range, expected) in cases {
            let wide = range > 1 << 64;
            let keys: Vec<u128> = (0..n)
                .map(|_| {
                    let k = (splitmix(&mut s) as u128) << 64 | splitmix(&mut s) as u128;
                    // Spread the active bytes over both halves of the key.
                    if wide {
                        k
                    } else {
                        (k % range) << 36
                    }
                })
                .collect();
            // Drop every fifth element; duplicates of a key are common
            // in the narrow ranges, so ties test stability.
            let key_of = |k: &u128| (!k.is_multiple_of(5)).then_some(*k >> 4);
            let (order, outcome) = radix_order_by_key(&keys, key_of).unwrap();
            assert_eq!(outcome, expected, "n={n} range={range:#x}");
            assert_eq!(order, stable_order(&keys, key_of), "n={n} range={range:#x}");
        }
    }

    #[test]
    fn wide_records_sort_like_narrow_ones() {
        // ≥ 9 active bytes only pass the gate from 2^27 elements up, so
        // the u128-record body is driven directly here.
        let mut s = 43u64;
        let keys: Vec<u128> = (0..20_000)
            .map(|_| ((splitmix(&mut s) as u128) << 64 | splitmix(&mut s) as u128) >> 40)
            .collect();
        let active: Vec<usize> = (0..11).collect();
        let order = sort_compact::<u128, u128, u128>(&keys, |&k| Some(k), &active, keys.len());
        assert_eq!(order, stable_order(&keys, |&k| Some(k)));
    }

    #[test]
    fn order_of_sorted_or_empty_selections_is_the_identity() {
        let keys: Vec<u64> = (0..5000u64).map(|i| i / 3).collect();
        let (order, outcome) = radix_order_by_key(&keys, |&k| Some(k)).unwrap();
        assert_eq!(outcome, SortOutcome::AlreadySorted);
        assert_eq!(order, (0..5000).collect::<Vec<u32>>());
        let (order, outcome) = radix_order_by_key(&keys, |&k| (k % 2 == 0).then_some(k)).unwrap();
        assert_eq!(outcome, SortOutcome::AlreadySorted);
        assert_eq!(order, stable_order(&keys, |&k| (k % 2 == 0).then_some(k)));
        let (order, outcome) = radix_order_by_key(&keys, |_| None::<u64>).unwrap();
        assert_eq!((order, outcome), (vec![], SortOutcome::AlreadySorted));
        let (order, _) = radix_order_by_key(&[] as &[u64], |&k| Some(k)).unwrap();
        assert!(order.is_empty());
    }

    #[test]
    fn parallel_order_is_bit_identical_across_widths() {
        // Radix path (both record widths' partition code) and the
        // comparison path, with a filter, at every pool width.
        let mut s = 41u64;
        for range in [1u64 << 16, 1 << 44, u64::MAX] {
            let keys: Vec<u64> = (0..150_000).map(|_| splitmix(&mut s) % range).collect();
            let key_of = |k: &u64| (!k.is_multiple_of(7)).then_some(*k);
            let seq = radix_order_by_key(&keys, key_of).unwrap();
            assert_eq!(seq.0, stable_order(&keys, key_of));
            for t in [1usize, 2, 8] {
                let par = width(t).install(|| par_radix_order_by_key(&keys, key_of).unwrap());
                assert_eq!(par, seq, "range={range:#x} width {t}");
            }
        }
    }

    fn width(t: usize) -> rayon::ThreadPool {
        rayon::ThreadPoolBuilder::new()
            .num_threads(t)
            .build()
            .unwrap()
    }

    #[test]
    fn parallel_radix_is_bit_identical_across_widths() {
        // Low-entropy keys with payload tags: the radix path runs, and
        // stability makes the output unique — every width must match
        // the sequential sorter exactly, outcome included.
        let mut s = 23u64;
        let items: Vec<(u32, u32)> = (0..100_000)
            .map(|i| ((splitmix(&mut s) % 65_536) as u32, i as u32))
            .collect();
        let mut seq = items.clone();
        let seq_out = radix_sort_by_key(&mut seq, |&(k, _)| k);
        assert!(matches!(seq_out, SortOutcome::Radix(_)));
        for t in [1usize, 2, 8] {
            let mut par = items.clone();
            let par_out = width(t).install(|| par_radix_sort_by_key(&mut par, |&(k, _)| k));
            assert_eq!(par_out, seq_out, "outcome at width {t}");
            assert_eq!(par, seq, "permutation at width {t}");
        }
    }

    #[test]
    fn parallel_radix_matches_sequential_decisions() {
        // Already-sorted input: the parallel chunk folds must reach the
        // same AlreadySorted verdict (boundary checks included).
        let sorted_in: Vec<u64> = (0..80_000u64).map(|i| i * 3).collect();
        let mut v = sorted_in.clone();
        let out = width(8).install(|| par_radix_sort_by_key(&mut v, |&k| k));
        assert_eq!(out, SortOutcome::AlreadySorted);
        assert_eq!(v, sorted_in);
        // Full-entropy keys: both sides must take the comparison
        // fallback and, keys being distinct, agree on the result.
        let mut s = 29u64;
        let items: Vec<u64> = (0..80_000).map(|_| splitmix(&mut s)).collect();
        let mut seq = items.clone();
        let seq_out = radix_sort_by_key(&mut seq, |&k| k);
        assert_eq!(seq_out, SortOutcome::Comparison);
        let mut par = items.clone();
        let par_out = width(8).install(|| par_radix_sort_by_key(&mut par, |&k| k));
        assert_eq!(par_out, SortOutcome::Comparison);
        assert_eq!(par, seq);
    }

    #[test]
    fn parallel_radix_tuple_keys_cross_word_boundary() {
        // Active bytes straddle the (hi, lo) halves of a tuple key, so
        // the parallel folds and compact-key build exercise the tuple
        // digit indexing; the unique low word keeps the order total.
        let mut s = 31u64;
        let items: Vec<(u64, u64)> = (0..80_000).map(|i| (splitmix(&mut s) % 256, i)).collect();
        let key = |&(k, i): &(u64, u64)| ((k as u128) << 64, i);
        let mut seq = items.clone();
        let seq_out = radix_sort_by_key(&mut seq, key);
        assert!(matches!(seq_out, SortOutcome::Radix(_)), "{seq_out:?}");
        let mut par = items.clone();
        let par_out = width(8).install(|| par_radix_sort_by_key(&mut par, key));
        assert_eq!(par_out, seq_out);
        assert_eq!(par, seq);
    }
}
