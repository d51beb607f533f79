//! Shared engine internals of the fast engines: the skip samplers,
//! convergence bookkeeping and the incremental effective-pair index.
//!
//! The fast engines agree on what they record per interaction — total
//! steps, effective interactions, edge events, and the steps of the last
//! output change / last effective interaction — so they share one
//! [`Bookkeeping`] value and one way of turning it into a
//! [`RunOutcome`](crate::RunOutcome). Likewise, the O(n)-per-interaction
//! maintenance of "which pairs currently have an applicable transition"
//! is one algorithm ([`EffectIndex`]) over the machine's dense
//! [`EffectTable`], shared by [`EventSim`](crate::EventSim) and
//! [`RoundSim`](crate::RoundSim). The naive
//! [`Simulation`](crate::Simulation) uses none of it: it is the
//! independent reference those engines are checked against.

use crate::compiled::{EffectTable, EnumerableMachine};
use crate::sim::RunOutcome;
use crate::{Link, Machine, Population};

/// Maps a raw 64-bit draw to a uniform value on the half-open unit
/// interval `(0, 1]` with 53-bit resolution — the draw both event engines
/// feed into [`geometric_skip`].
///
/// The `+ 1` excludes 0 (whose logarithm is −∞) and includes 1 (zero
/// skips), mirroring the inversion convention of the original `EventSim`
/// sampler bit for bit.
#[inline]
#[must_use]
pub fn unit_open01(raw: u64) -> f64 {
    ((raw >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Inversion of the geometric law shared by [`EventSim`](crate::EventSim)
/// and [`BucketSim`](crate::BucketSim): the number of consecutive
/// scheduler draws that miss a candidate set hit with probability `p`,
/// derived from one uniform `u ∈ (0, 1]` as `⌊ln u / ln(1−p)⌋`.
///
/// `P(skips ≥ t) = (1−p)^t` exactly (up to f64 rounding), so feeding both
/// engines the same *skip schedule* (the same stream of `u`s) makes their
/// skip counts directly comparable: the engine with the larger candidate
/// set (larger `p`) never skips more — the monotonicity the coin-level
/// proptests pin.
///
/// Returns an `f64` so callers can compare against a remaining-budget
/// window before truncating (the value can exceed `u64::MAX` when `p` is
/// tiny and `u` is close to 0).
#[inline]
#[must_use]
pub fn geometric_skip(u01: f64, p: f64) -> f64 {
    debug_assert!(p > 0.0 && p <= 1.0);
    (u01.ln() / (-p).ln_1p()).floor()
}

/// Survival function of the negative hypergeometric skip law: the
/// probability that the first `t` draws of a uniform random permutation of
/// `remaining` items, `hits` of them marked, are all unmarked.
///
/// `S(t) = ∏_{j=0}^{hits−1} (remaining − t − j)/(remaining − j)` — the
/// `hits`-factor form (each of the `hits` marked items independently-ish
/// avoids the length-`t` prefix), equal to the draw-by-draw product
/// `∏_{i=0}^{t−1} (misses − i)/(remaining − i)` that the naive engine
/// realizes one scheduler draw at a time.
fn nh_survival(remaining: u64, hits: u64, t: u64) -> f64 {
    if t > remaining - hits {
        return 0.0;
    }
    let mut s = 1.0f64;
    for j in 0..hits {
        s *= (remaining - t - j) as f64 / (remaining - j) as f64;
        if s == 0.0 {
            break;
        }
    }
    s
}

/// Smallest `t` in `[lo, hi]` with `nh_survival(t + 1) < u01` (the
/// survival function is non-increasing in `t`, so the predicate is
/// monotone). The caller guarantees the answer lies in the window.
fn nh_bisect(u01: f64, remaining: u64, hits: u64, lo: u64, hi: u64) -> u64 {
    let (mut lo, mut hi) = (lo, hi);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if nh_survival(remaining, hits, mid + 1) < u01 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Inversion of the *negative hypergeometric* skip law used by
/// [`RoundSim`](crate::RoundSim): drawing without replacement from
/// `remaining` unscheduled pairs of which `hits` are candidates, the
/// number of non-candidate draws before the first candidate, derived from
/// one uniform `u ∈ (0, 1]`.
///
/// This is the within-round counterpart of [`geometric_skip`]: under the
/// ShuffledRounds scheduler the rest of a round is a uniform permutation
/// of the remaining pairs, so `P(skips ≥ t) = ∏_{i<t} (misses−i)/(remaining−i)`
/// (hypergeometric counts instead of the i.i.d. `(1−p)^t`). Like its
/// geometric sibling the law is self-similar under truncation — `t`
/// failures leave a uniform permutation of `remaining − t` pairs with the
/// same `hits` — so stopping mid-skip at a budget and resampling on
/// resume is exact, which is what lets `run_to` pause anywhere.
///
/// The returned skip count never exceeds `remaining − hits` (a round
/// cannot run out of candidates before its last candidate is drawn).
/// Cost: `O(min(skips, hits·log remaining))` — a short sequential walk of
/// the draw-by-draw product when the candidate set is dense, a bisection
/// on the `hits`-factor survival form when it is sparse.
///
/// # Panics
///
/// Debug-asserts `1 ≤ hits ≤ remaining` and `u01 ∈ (0, 1]`.
#[must_use]
pub fn hypergeometric_skip(u01: f64, remaining: u64, hits: u64) -> u64 {
    debug_assert!(hits >= 1 && hits <= remaining);
    debug_assert!(u01 > 0.0 && u01 <= 1.0);
    let misses = remaining - hits;
    if misses == 0 {
        return 0;
    }
    // The result is the smallest t with S(t+1) < u (the same bracketing
    // convention as geometric_skip: S(t) ≥ u > S(t+1) ⇔ skips = t).
    let expect = misses / (hits + 1) + 1;
    if hits.saturating_mul(34) > expect.saturating_mul(4) {
        // Dense candidate set: the expected skip count is tiny, so walk
        // the draw-by-draw product. The cap bounds a pathological tail
        // (probability ≲ e⁻³²) which falls through to the bisection.
        let cap = expect.saturating_mul(32).min(misses);
        let mut surv = 1.0f64;
        for t in 0..cap {
            surv *= (misses - t) as f64 / (remaining - t) as f64;
            if surv < u01 {
                return t;
            }
        }
        if cap == misses {
            // S(misses + 1) = 0 < u: the permutation is out of misses.
            return misses;
        }
        nh_bisect(u01, remaining, hits, cap, misses)
    } else {
        nh_bisect(u01, remaining, hits, 0, misses)
    }
}

/// Inversion of the hypergeometric *count* law: drawing `draws` items
/// without replacement from `total` items of which `marked` are marked,
/// the number of marked items drawn, derived from one uniform
/// `u ∈ (0, 1]`.
///
/// [`RoundSim`](crate::RoundSim) uses it to split a batch of skipped
/// ineffective draws between the explicitly-tracked resolved pairs and
/// the anonymous unresolved pool: the skips are uniform without
/// replacement over their union, so the split is exactly this law.
///
/// The probability table is built by ratio recurrences outward from the
/// mode (whose unnormalized mass is pinned at 1, so nothing near the
/// bulk under- or overflows), then inverted as the smallest `x` with
/// `CDF(x) ≥ u`. Cost and transient memory are O(range) where
/// `range = min(marked, draws, total − marked, total − draws)`.
///
/// # Panics
///
/// Debug-asserts `marked ≤ total`, `draws ≤ total`, and `u01 ∈ (0, 1]`.
#[must_use]
pub fn hypergeometric_count(u01: f64, marked: u64, total: u64, draws: u64) -> u64 {
    debug_assert!(marked <= total && draws <= total);
    debug_assert!(u01 > 0.0 && u01 <= 1.0);
    let unmarked = total - marked;
    let lo = draws.saturating_sub(unmarked);
    let hi = marked.min(draws);
    if lo == hi {
        return lo;
    }
    // q(x+1)/q(x) for the pmf q(x) = C(marked, x)·C(unmarked, draws−x).
    let ratio = |x: u64| -> f64 {
        ((marked - x) as f64 * (draws - x) as f64)
            / ((x + 1) as f64 * (unmarked + x + 1 - draws) as f64)
    };
    let mode = ((u128::from(draws + 1) * u128::from(marked + 1)) / u128::from(total + 2)) as u64;
    let mode = mode.clamp(lo, hi);
    let mut pmf = vec![0.0f64; (hi - lo + 1) as usize];
    pmf[(mode - lo) as usize] = 1.0;
    let mut q = 1.0f64;
    for x in mode..hi {
        q *= ratio(x);
        pmf[(x + 1 - lo) as usize] = q;
    }
    q = 1.0;
    for x in (lo..mode).rev() {
        q /= ratio(x);
        pmf[(x - lo) as usize] = q;
    }
    let z: f64 = pmf.iter().sum();
    let target = u01 * z;
    let mut cum = 0.0f64;
    for (i, &p) in pmf.iter().enumerate() {
        cum += p;
        if cum >= target {
            return lo + i as u64;
        }
    }
    hi
}

/// Windowed variant of [`hypergeometric_count`] for huge parameters:
/// identical law, but the ratio-recurrence table is built only on a
/// `±(12σ + 32)` window around the mode instead of the full support, so
/// the cost is O(σ) instead of O(range). The truncated tail mass is
/// below `e⁻⁷²` relative — smaller than the `f64` rounding already
/// inherent in the dense table — so the two functions agree in
/// distribution; they may differ only on draws landing more than 12
/// standard deviations into a tail. Delegates to the exact-support
/// version whenever the full range is small.
///
/// The sparse round engine uses this to split skipped scheduled
/// occurrences between pools whose sizes scale with `n²`.
///
/// # Panics
///
/// Debug-asserts the same preconditions as [`hypergeometric_count`].
#[must_use]
pub fn hypergeometric_count_large(u01: f64, marked: u64, total: u64, draws: u64) -> u64 {
    debug_assert!(marked <= total && draws <= total);
    debug_assert!(u01 > 0.0 && u01 <= 1.0);
    let unmarked = total - marked;
    let lo = draws.saturating_sub(unmarked);
    let hi = marked.min(draws);
    if hi - lo <= 4096 {
        return hypergeometric_count(u01, marked, total, draws);
    }
    let (nf, kf, mf) = (total as f64, draws as f64, marked as f64);
    let p = mf / nf;
    let sigma = (kf * p * (1.0 - p) * ((nf - kf) / (nf - 1.0))).sqrt();
    let half = (12.0 * sigma) as u64 + 32;
    let mode = ((u128::from(draws + 1) * u128::from(marked + 1)) / u128::from(total + 2)) as u64;
    let mode = mode.clamp(lo, hi);
    let wlo = mode.saturating_sub(half).max(lo);
    let whi = mode.saturating_add(half).min(hi);
    let ratio = |x: u64| -> f64 {
        ((marked - x) as f64 * (draws - x) as f64)
            / ((x + 1) as f64 * (unmarked + x + 1 - draws) as f64)
    };
    let mut pmf = vec![0.0f64; (whi - wlo + 1) as usize];
    pmf[(mode - wlo) as usize] = 1.0;
    let mut q = 1.0f64;
    for x in mode..whi {
        q *= ratio(x);
        pmf[(x + 1 - wlo) as usize] = q;
    }
    q = 1.0;
    for x in (wlo..mode).rev() {
        q /= ratio(x);
        pmf[(x - wlo) as usize] = q;
    }
    let z: f64 = pmf.iter().sum();
    let target = u01 * z;
    let mut cum = 0.0f64;
    for (i, &p) in pmf.iter().enumerate() {
        cum += p;
        if cum >= target {
            return wlo + i as u64;
        }
    }
    whi
}

/// A cached inversion table for [`geometric_skip`] at one fixed hit
/// probability `p`: for small skip counts the floor inversion is a pure
/// threshold function of the raw draw's 53-bit mantissa, so the table
/// stores the integer cut points and the steady-state path answers most
/// draws with one binary search over 64 `u64`s instead of an `ln`.
///
/// **Bit-identical by construction**: each cut point is found by binary
/// search *over the real function* — `cuts[t]` is the smallest mantissa
/// value `j = (raw >> 11) + 1` with
/// `geometric_skip(unit_open01(raw), p) ≤ t` — so on a cache hit the
/// answer equals what the direct computation would have produced for the
/// same raw draw, and a miss (skip beyond the tabled horizon, or a
/// different `p`) falls back to the direct computation on the *same*
/// draw. The engines' coin streams are therefore unchanged.
#[derive(Debug, Clone)]
pub struct GeoSkipCache {
    p: f64,
    /// `cuts[t]` = smallest mantissa `j` whose skip is ≤ `t`;
    /// non-increasing in `t` (larger `u` ⇒ fewer skips).
    cuts: Vec<u64>,
}

/// Tabled skip horizon: draws that skip more than this many candidates
/// fall back to the direct `ln` inversion. 64 entries cover
/// `1 − (1−p)^65` of draws — essentially all of them in the dense-`p`
/// steady state the cache targets.
pub const GEO_CACHE_HORIZON: usize = 64;

impl GeoSkipCache {
    /// Builds the table for hit probability `p ∈ (0, 1)`.
    #[must_use]
    pub fn build(p: f64) -> Self {
        debug_assert!(p > 0.0 && p < 1.0);
        let skip_of = |j: u64| geometric_skip(j as f64 * (1.0 / (1u64 << 53) as f64), p);
        let mut cuts = Vec::with_capacity(GEO_CACHE_HORIZON + 1);
        for t in 0..=GEO_CACHE_HORIZON as u64 {
            // Smallest j in [1, 2⁵³] with skip(j) ≤ t; skip is
            // non-increasing in j and skip(2⁵³) = 0.
            let (mut lo, mut hi) = (1u64, 1u64 << 53);
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if skip_of(mid) <= t as f64 {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            cuts.push(lo);
        }
        Self { p, cuts }
    }

    /// The probability the table was built for.
    #[must_use]
    pub fn p(&self) -> f64 {
        self.p
    }

    /// The skip count for a raw 64-bit draw, or `None` when the draw
    /// falls beyond the tabled horizon (caller recomputes directly from
    /// the same draw).
    #[inline]
    #[must_use]
    pub fn lookup(&self, raw: u64) -> Option<f64> {
        let j = (raw >> 11) + 1;
        if j < self.cuts[GEO_CACHE_HORIZON] {
            return None;
        }
        // cuts is non-increasing; the skip is the first t with cuts[t] ≤ j.
        Some(self.cuts.partition_point(|&c| c > j) as f64)
    }
}

/// Streak-counting lazy builder for [`GeoSkipCache`]: engines call
/// [`note`](Self::note) with the current hit probability before each
/// skip draw and get a cache back once the same `p` has recurred long
/// enough to amortize the table build.
#[derive(Debug, Clone, Default)]
pub(crate) struct GeoCacheSlot {
    cache: Option<GeoSkipCache>,
    streak_p: f64,
    streak: u32,
}

/// Builds after this many consecutive draws at one `p` (the table build
/// costs ~64 binary searches of ~53 `ln` evaluations).
const GEO_CACHE_STREAK: u32 = 512;

impl GeoCacheSlot {
    /// Returns the cache valid for `p`, if one is (or just became) warm.
    #[inline]
    pub(crate) fn note(&mut self, p: f64) -> Option<&GeoSkipCache> {
        if let Some(c) = &self.cache {
            if c.p() == p {
                return self.cache.as_ref();
            }
        }
        if self.streak_p == p {
            self.streak += 1;
            if self.streak >= GEO_CACHE_STREAK && p > 0.0 && p < 1.0 {
                self.cache = Some(GeoSkipCache::build(p));
                return self.cache.as_ref();
            }
        } else {
            self.streak_p = p;
            self.streak = 1;
        }
        None
    }
}

/// The output graph of a configuration: active edges restricted to nodes
/// in output states (`G(C)` in §3.1). Shared by both engines'
/// `output_graph` methods.
pub(crate) fn output_graph<M: Machine>(
    machine: &M,
    pop: &Population<M::State>,
) -> netcon_graph::EdgeSet {
    let mut out = netcon_graph::EdgeSet::new(pop.n());
    for (u, v) in pop.edges().active_edges() {
        if machine.is_output(pop.state(u)) && machine.is_output(pop.state(v)) {
            out.activate(u, v);
        }
    }
    out
}

/// The run counters of the fast engines, shared by their driver.
///
/// The counts are wide (`u128`): [`BucketSim`](crate::BucketSim)'s
/// batched endgame advances the raw-step clock by negative-binomial
/// totals that overflow `u64` at the million-node frontier (a
/// 10¹²-effective-step walk at a ~10⁻¹¹ hit probability consumes ~10²³
/// raw steps). Budgets, [`RunOutcome`] and the public accessors speak
/// saturating `u64`; an engine that never batches never passes its
/// `u64` budget, so for it the saturating reads are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Bookkeeping {
    /// Scheduler-selected interactions so far (including ineffective ones).
    pub steps: u128,
    /// Effective interactions so far.
    pub effective_steps: u128,
    /// Edge activations/deactivations so far.
    pub edge_events: u64,
    /// Step of the most recent edge change (0 if none yet).
    pub last_output_change: u128,
    /// Step of the most recent effective interaction (0 if none yet).
    pub last_effective: u128,
}

impl Bookkeeping {
    /// The step count, saturating at `u64::MAX`.
    pub fn steps(&self) -> u64 {
        u64::try_from(self.steps).unwrap_or(u64::MAX)
    }

    /// The effective-interaction count, saturating.
    pub fn effective_steps(&self) -> u64 {
        u64::try_from(self.effective_steps).unwrap_or(u64::MAX)
    }

    /// The step of the last edge change, saturating.
    pub fn last_output_change(&self) -> u64 {
        u64::try_from(self.last_output_change).unwrap_or(u64::MAX)
    }

    /// The step of the last effective interaction, saturating.
    pub fn last_effective(&self) -> u64 {
        u64::try_from(self.last_effective).unwrap_or(u64::MAX)
    }

    /// Records an effective interaction at the current `steps` count.
    pub fn record_effective(&mut self, edge_changed: bool) {
        if edge_changed {
            self.edge_events += 1;
            self.last_output_change = self.steps;
        }
        self.effective_steps += 1;
        self.last_effective = self.steps;
    }

    /// The [`RunOutcome`] for a stable predicate observed right now.
    pub fn stabilized_now(&self) -> RunOutcome {
        RunOutcome::Stabilized {
            detected_at: self.steps(),
            converged_at: self.last_output_change(),
            last_effective: self.last_effective(),
        }
    }
}

/// A set of unordered node pairs supporting O(1) insert, remove,
/// membership, and uniform sampling by position.
///
/// The members live in a dense vector (swap-remove keeps it compact); the
/// position map is a full `n × n` matrix — twice the memory of a
/// triangular map (`4n²` bytes), but the event engine's per-interaction
/// rescan then reads one *contiguous* row per touched node, which is
/// what the O(n)-maintenance hot loop is bound on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PairSet {
    n: usize,
    /// Words per row of the membership bitset.
    row_words: usize,
    /// Packed members `(u << 16) | v` with `u < v`.
    members: Vec<u32>,
    /// `pos[u * n + v]` (and mirror `[v * n + u]`) → position in
    /// `members` + 1, or 0 when absent.
    pos: Vec<u32>,
    /// Membership bitset, one row per node (bit `v` of row `u` and bit
    /// `u` of row `v`): lets the engines diff a whole row against a
    /// desired-membership mask word-wise.
    rows: Vec<u64>,
}

impl PairSet {
    /// Creates an empty set over `n` nodes.
    ///
    /// # Panics
    ///
    /// Panics if `n > 65535` (members are packed into `u16` halves).
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n <= usize::from(u16::MAX), "PairSet packs nodes into u16");
        let row_words = n.div_ceil(64);
        Self {
            n,
            row_words,
            members: Vec::new(),
            pos: vec![0; n * n],
            rows: vec![0; n * row_words],
        }
    }

    /// The membership bitset row of node `u` (bit `v` ⇔ `{u, v}` is a
    /// member).
    #[must_use]
    pub fn row_bits(&self, u: usize) -> &[u64] {
        &self.rows[u * self.row_words..(u + 1) * self.row_words]
    }

    /// The number of member pairs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Whether `{u, v}` is a member.
    #[must_use]
    pub fn contains(&self, u: usize, v: usize) -> bool {
        self.pos[u * self.n + v] != 0
    }

    /// Inserts or removes `{u, v}` according to `member` (no-ops when the
    /// membership already matches).
    pub fn set(&mut self, u: usize, v: usize, member: bool) {
        debug_assert!(u != v && u < self.n && v < self.n);
        let i = u * self.n + v;
        let p = self.pos[i];
        if member {
            if p == 0 {
                let (a, b) = if u < v { (u, v) } else { (v, u) };
                self.members.push((a as u32) << 16 | b as u32);
                let at = u32::try_from(self.members.len()).expect("≤ n²/2 members");
                self.pos[i] = at;
                self.pos[v * self.n + u] = at;
                self.rows[u * self.row_words + v / 64] |= 1u64 << (v % 64);
                self.rows[v * self.row_words + u / 64] |= 1u64 << (u % 64);
            }
        } else if p != 0 {
            let hole = (p - 1) as usize;
            let last = *self.members.last().expect("non-empty: p != 0");
            self.members.swap_remove(hole);
            self.pos[i] = 0;
            self.pos[v * self.n + u] = 0;
            self.rows[u * self.row_words + v / 64] &= !(1u64 << (v % 64));
            self.rows[v * self.row_words + u / 64] &= !(1u64 << (u % 64));
            if hole < self.members.len() {
                let (lu, lv) = ((last >> 16) as usize, (last & 0xFFFF) as usize);
                self.pos[lu * self.n + lv] = p;
                self.pos[lv * self.n + lu] = p;
            }
        }
    }

    /// The member at position `i` (for uniform sampling), as `(u, v)` with
    /// `u < v`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> (usize, usize) {
        let packed = self.members[i];
        ((packed >> 16) as usize, (packed & 0xFFFF) as usize)
    }

    /// Iterates the member pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.members
            .iter()
            .map(|&p| ((p >> 16) as usize, (p & 0xFFFF) as usize))
    }

    /// Removes every member in O(members) — the per-round reset of the
    /// [`RoundSim`](crate::RoundSim) bookkeeping sets (the Θ(n²) position
    /// matrix is only ever touched where members actually lived).
    pub fn clear(&mut self) {
        for i in 0..self.members.len() {
            let packed = self.members[i];
            let (u, v) = ((packed >> 16) as usize, (packed & 0xFFFF) as usize);
            self.pos[u * self.n + v] = 0;
            self.pos[v * self.n + u] = 0;
            self.rows[u * self.row_words + v / 64] &= !(1u64 << (v % 64));
            self.rows[v * self.row_words + u / 64] &= !(1u64 << (u % 64));
        }
        self.members.clear();
    }

    /// Bytes of heap memory held by this set (position matrix, membership
    /// bitset, member vector) — the Θ(n²) bulk of the dense event engine.
    #[must_use]
    pub fn approx_mem_bytes(&self) -> u64 {
        (self.pos.capacity() * 4 + self.rows.capacity() * 8 + self.members.capacity() * 4) as u64
    }
}

/// Applies a desired-membership bitset row for node `u` to `pairs`: only
/// the XOR diff against the current row touches the set, in increasing-`v`
/// order — the word-parallel tail of [`EffectIndex::rescan`], also used
/// to clear the pair row of a node that leaves the population.
///
/// The increasing-`v` application order is part of the engines'
/// reproducibility contract: it determines the member order inside
/// `pairs`, which the samplers index by position.
pub(crate) fn apply_desired_row(pairs: &mut PairSet, u: usize, desired: &[u64]) {
    for (k, &want) in desired.iter().enumerate() {
        let mut changed = want ^ pairs.row_bits(u)[k];
        while changed != 0 {
            let b = changed.trailing_zeros() as usize;
            changed &= changed - 1;
            let w = k * 64 + b;
            pairs.set(u, w, want >> b & 1 == 1);
        }
    }
}

/// Dense-index view of a machine's effectiveness relation plus the current
/// per-node state indices — the incremental core shared by `EventSim` and
/// `RoundSim`.
#[derive(Debug, Clone)]
pub(crate) struct EffectIndex {
    table: EffectTable,
    /// Dense state index of every node.
    idx: Vec<u16>,
    /// One node bitset per state (bit `u` of row `s` ⇔ `idx[u] == s`),
    /// `row_words` words each — the input of the word-parallel rescan.
    state_nodes: Vec<u64>,
    /// Ghost mask for faulted runs: bit `u` set ⇔ node `u` is absent
    /// (crashed or not yet arrived) and must never be a candidate. The
    /// word-parallel rescan excludes absent nodes automatically (they
    /// are cleared from `state_nodes` and hold no active edges); the
    /// per-pair fallback for > 32-state machines consults this mask.
    absent: Vec<u64>,
    /// Scratch row for the desired-membership mask.
    scratch: Vec<u64>,
    row_words: usize,
}

impl EffectIndex {
    /// Builds the index and the initial possibly-effective pair set with a
    /// full O(n²) scan of `pop`.
    pub fn build<M: EnumerableMachine>(
        machine: &M,
        pop: &Population<M::State>,
        table: EffectTable,
    ) -> (Self, PairSet) {
        let n = pop.n();
        let idx: Vec<u16> = (0..n)
            .map(|u| u16::try_from(machine.state_index(pop.state(u))).expect("≤ 65536 states"))
            .collect();
        let row_words = n.div_ceil(64);
        let mut state_nodes = vec![0u64; table.size() * row_words];
        for (u, &s) in idx.iter().enumerate() {
            state_nodes[s as usize * row_words + u / 64] |= 1u64 << (u % 64);
        }
        let mut pairs = PairSet::new(n);
        for u in 0..n {
            for (v, active) in pop.edges().row(u) {
                if v > u && table.can_affect(idx[u] as usize, idx[v] as usize, Link::from(active))
                {
                    pairs.set(u, v, true);
                }
            }
        }
        (
            Self {
                table,
                idx,
                state_nodes,
                absent: vec![0u64; row_words],
                scratch: vec![0u64; row_words],
                row_words,
            },
            pairs,
        )
    }

    /// Marks node `x` absent (a ghost): it leaves its per-state node
    /// bitset so no word-parallel rescan ever proposes a pair with it,
    /// and the fallback path masks it explicitly. The caller clears
    /// `x`'s pair row and edges; `idx[x]` is retained (an arrived node
    /// re-enters with its unchanged initial state).
    pub fn set_absent(&mut self, x: usize) {
        let (word, bit) = (x / 64, 1u64 << (x % 64));
        self.state_nodes[self.idx[x] as usize * self.row_words + word] &= !bit;
        self.absent[word] |= bit;
    }

    /// Marks node `x` present again (an arrival): re-enters its state's
    /// node bitset. The caller rescans `x`'s pair row afterwards.
    pub fn set_present(&mut self, x: usize) {
        let (word, bit) = (x / 64, 1u64 << (x % 64));
        self.state_nodes[self.idx[x] as usize * self.row_words + word] |= bit;
        self.absent[word] &= !bit;
    }

    /// Whether node `x` is currently marked absent.
    pub fn is_absent(&self, x: usize) -> bool {
        self.absent[x / 64] >> (x % 64) & 1 == 1
    }

    /// Recomputes the membership of every pair incident to `u` — the
    /// public entry the fault layer uses after an arrival flips `u`
    /// back to present.
    pub fn rescan_node<S: Clone>(&mut self, pop: &Population<S>, pairs: &mut PairSet, u: usize) {
        debug_assert!(!self.is_absent(u), "rescan of an absent node");
        self.rescan(pop, pairs, u);
    }

    /// The dense state index of node `u`.
    pub fn state_index(&self, u: usize) -> usize {
        self.idx[u] as usize
    }

    /// The effect table.
    pub fn table(&self) -> &EffectTable {
        &self.table
    }

    /// Bytes of heap memory held by the index (state indices, per-state
    /// node bitsets, scratch row, effect table).
    pub fn approx_mem_bytes(&self) -> u64 {
        (self.idx.capacity() * 2
            + (self.state_nodes.capacity() + self.absent.capacity() + self.scratch.capacity()) * 8)
            as u64
            + self.table.approx_mem_bytes()
    }

    /// Updates the index after a *state-only* change of node `u` (a
    /// crash notification): re-derives `u`'s state index and rescans its
    /// incident pair row. The single-node analogue of
    /// [`on_interaction`](EffectIndex::on_interaction).
    pub fn on_state_change<M: EnumerableMachine>(
        &mut self,
        machine: &M,
        pop: &Population<M::State>,
        pairs: &mut PairSet,
        u: usize,
    ) {
        self.reindex(machine, pop, u);
        self.rescan(pop, pairs, u);
    }

    /// Updates the index after an effective interaction between `u` and
    /// `v`: re-derives both state indices and rescans the two incident
    /// pair rows (O(n), word-parallel for small machines).
    pub fn on_interaction<M: EnumerableMachine>(
        &mut self,
        machine: &M,
        pop: &Population<M::State>,
        pairs: &mut PairSet,
        u: usize,
        v: usize,
    ) {
        self.reindex(machine, pop, u);
        self.reindex(machine, pop, v);
        self.rescan(pop, pairs, u);
        self.rescan(pop, pairs, v);
    }

    /// Re-derives `idx[u]` and keeps the per-state node bitsets in sync.
    fn reindex<M: EnumerableMachine>(
        &mut self,
        machine: &M,
        pop: &Population<M::State>,
        u: usize,
    ) {
        let new = u16::try_from(machine.state_index(pop.state(u))).expect("≤ 65536 states");
        let old = self.idx[u];
        if old != new {
            let (word, bit) = (u / 64, 1u64 << (u % 64));
            self.state_nodes[old as usize * self.row_words + word] &= !bit;
            self.state_nodes[new as usize * self.row_words + word] |= bit;
            self.idx[u] = new;
        }
    }

    /// Recomputes the membership of every pair incident to `u`.
    ///
    /// This is the engine's hot loop (O(n) per effective interaction),
    /// and for machines with ≤ 32 states it is *word-parallel*: the
    /// desired membership row is the OR of the node bitsets of the states
    /// `u`'s state is effective against (edge-blind), patched for the
    /// O(degree) active neighbours, then XOR-diffed against the current
    /// membership row so only genuinely changed pairs touch the set —
    /// `O(n·|Q|/64 + degree + changes)` rather than `O(n)` element
    /// operations.
    fn rescan<S: Clone>(&mut self, pop: &Population<S>, pairs: &mut PairSet, u: usize) {
        let iu = self.idx[u] as usize;
        if let Some(row_mask) = self.table.affect_row(iu) {
            let wpr = self.row_words;
            // Desired membership, assuming every incident edge is off.
            self.scratch.fill(0);
            for s in 0..self.table.size() {
                if row_mask >> (s << 1) & 1 == 1 {
                    let row = &self.state_nodes[s * wpr..(s + 1) * wpr];
                    for (d, &w) in self.scratch.iter_mut().zip(row) {
                        *d |= w;
                    }
                }
            }
            // Patch the active neighbours with the edge-on relation, and
            // drop the self-pair.
            for w in pop.edges().neighbors(u) {
                let on = row_mask >> ((usize::from(self.idx[w]) << 1) | 1) & 1 == 1;
                if on {
                    self.scratch[w / 64] |= 1u64 << (w % 64);
                } else {
                    self.scratch[w / 64] &= !(1u64 << (w % 64));
                }
            }
            self.scratch[u / 64] &= !(1u64 << (u % 64));
            // Apply exactly the diff.
            apply_desired_row(pairs, u, &self.scratch);
        } else {
            for (w, active) in pop.edges().row(u) {
                pairs.set(
                    u,
                    w,
                    self.absent[w / 64] >> (w % 64) & 1 == 0
                        && self
                            .table
                            .can_affect(iu, self.idx[w] as usize, Link::from(active)),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_set_insert_remove_sample() {
        let mut s = PairSet::new(6);
        assert!(s.is_empty());
        s.set(4, 1, true);
        s.set(2, 3, true);
        s.set(1, 4, true); // duplicate (order-insensitive): no-op
        assert_eq!(s.len(), 2);
        assert!(s.contains(1, 4) && s.contains(3, 2));
        let mut all: Vec<_> = s.iter().collect();
        all.sort_unstable();
        assert_eq!(all, vec![(1, 4), (2, 3)]);
        s.set(1, 4, false);
        assert_eq!(s.len(), 1);
        assert!(!s.contains(4, 1));
        assert_eq!(s.get(0), (2, 3));
        s.set(2, 3, false);
        s.set(2, 3, false); // removing an absent pair is a no-op
        assert!(s.is_empty());
    }

    #[test]
    fn pair_set_swap_remove_keeps_positions_consistent() {
        let mut s = PairSet::new(8);
        for u in 0..8 {
            for v in (u + 1)..8 {
                s.set(u, v, true);
            }
        }
        assert_eq!(s.len(), 28);
        // Remove half the pairs in an arbitrary order and verify the
        // remaining memberships survive all the swap-removes.
        for u in 0..8 {
            for v in (u + 1)..8 {
                if (u + v) % 2 == 0 {
                    s.set(u, v, false);
                }
            }
        }
        for u in 0..8 {
            for v in (u + 1)..8 {
                assert_eq!(s.contains(u, v), (u + v) % 2 == 1, "pair ({u},{v})");
            }
        }
        let from_iter: std::collections::HashSet<_> = s.iter().collect();
        assert_eq!(from_iter.len(), s.len());
    }

    #[test]
    fn pair_set_clear_empties_everything() {
        let mut s = PairSet::new(9);
        for u in 0..9 {
            for v in (u + 1)..9 {
                if (u * v) % 3 == 0 {
                    s.set(u, v, true);
                }
            }
        }
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
        for u in 0..9 {
            for v in 0..9 {
                if u != v {
                    assert!(!s.contains(u, v), "({u},{v}) survived clear");
                }
            }
        }
        assert!(s.row_bits(4).iter().all(|&w| w == 0));
        // The set is fully reusable after a clear.
        s.set(2, 7, true);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(0), (2, 7));
    }

    /// Exact negative-hypergeometric survival by draw-by-draw rationals.
    fn nh_survival_exact(remaining: u64, hits: u64, t: u64) -> f64 {
        let misses = remaining - hits;
        if t > misses {
            return 0.0;
        }
        (0..t)
            .map(|i| (misses - i) as f64 / (remaining - i) as f64)
            .product()
    }

    #[test]
    fn hypergeometric_skip_brackets_the_survival_function() {
        // skip = t ⇔ S(t) ≥ u > S(t+1), for both the walk regime (dense
        // hits) and the bisection regime (sparse hits).
        for &(r, k) in &[(10u64, 1u64), (10, 5), (10, 9), (400, 2), (400, 300), (5000, 3)] {
            for i in 0..200u64 {
                let u = (i as f64 + 0.5) / 200.0;
                let t = hypergeometric_skip(u, r, k);
                assert!(t <= r - k);
                let hi = nh_survival_exact(r, k, t);
                let lo = nh_survival_exact(r, k, t + 1);
                assert!(
                    u <= hi * (1.0 + 1e-9) && u > lo * (1.0 - 1e-9),
                    "r={r} k={k} u={u}: skip {t} outside bracket ({lo}, {hi}]"
                );
            }
        }
    }

    #[test]
    fn hypergeometric_skip_edge_cases() {
        // All pairs are candidates: never skip.
        assert_eq!(hypergeometric_skip(0.3, 7, 7), 0);
        // u = 1 maps to zero skips (the geometric convention).
        assert_eq!(hypergeometric_skip(1.0, 100, 1), 0);
        // One candidate among many, u tiny: the round exhausts its misses
        // and the skip count saturates at remaining − hits.
        assert_eq!(hypergeometric_skip(1e-300, 50, 1), 49);
        // Two remaining, one candidate: S(1) = 1/2 splits the unit draw.
        assert_eq!(hypergeometric_skip(0.6, 2, 1), 0);
        assert_eq!(hypergeometric_skip(0.4, 2, 1), 1);
    }

    /// Exact hypergeometric pmf via factorial ratios (small inputs).
    fn hg_pmf_exact(marked: u64, total: u64, draws: u64, x: u64) -> f64 {
        fn choose(n: u64, k: u64) -> f64 {
            if k > n {
                return 0.0;
            }
            (0..k).map(|i| (n - i) as f64 / (k - i) as f64).product()
        }
        choose(marked, x) * choose(total - marked, draws - x) / choose(total, draws)
    }

    #[test]
    fn hypergeometric_count_inverts_the_cdf() {
        for &(marked, total, draws) in
            &[(3u64, 10u64, 4u64), (5, 12, 7), (1, 6, 5), (6, 9, 8), (4, 8, 4)]
        {
            for i in 0..400u64 {
                let u = (i as f64 + 0.5) / 400.0;
                let x = hypergeometric_count(u, marked, total, draws);
                // x is the smallest value with CDF(x) ≥ u.
                let cdf = |y: u64| -> f64 {
                    (0..=y).map(|j| hg_pmf_exact(marked, total, draws, j)).sum()
                };
                assert!(
                    cdf(x) >= u * (1.0 - 1e-9),
                    "m={marked} t={total} d={draws} u={u}: CDF({x}) too small"
                );
                if x > draws.saturating_sub(total - marked) {
                    assert!(
                        cdf(x - 1) < u * (1.0 + 1e-9),
                        "m={marked} t={total} d={draws} u={u}: {x} not minimal"
                    );
                }
            }
        }
    }

    #[test]
    fn hypergeometric_count_degenerate_ranges() {
        // Everything must be drawn from the marked side.
        assert_eq!(hypergeometric_count(0.5, 4, 4, 3), 3);
        // No marked items at all.
        assert_eq!(hypergeometric_count(0.5, 0, 9, 4), 0);
        // Drawing the whole population takes every marked item.
        assert_eq!(hypergeometric_count(0.5, 3, 7, 7), 3);
        // draws > unmarked forces a lower bound above zero.
        assert_eq!(hypergeometric_count(1e-12, 5, 8, 6), 3);
    }

    /// The windowed large-parameter splitter delegates exactly on small
    /// ranges and lands inside the correct CDF bracket on huge ones.
    #[test]
    fn hypergeometric_count_large_matches_the_law() {
        // Small ranges: bit-identical delegation.
        for &(m, t, d) in &[(5u64, 12u64, 7u64), (300, 1000, 400), (2000, 9000, 3000)] {
            for i in 0..50u64 {
                let u = (i as f64 + 0.5) / 50.0;
                assert_eq!(
                    hypergeometric_count_large(u, m, t, d),
                    hypergeometric_count(u, m, t, d)
                );
            }
        }
        // Huge parameters: the result must bracket u in the normalized
        // window CDF (checked via the same mode-pinned recurrence).
        let (m, t, d) = (40_000_000u64, 100_000_000u64, 25_000_000u64);
        let mean = d as f64 * m as f64 / t as f64;
        let sigma = (d as f64 * 0.4 * 0.6 * ((t - d) as f64 / (t - 1) as f64)).sqrt();
        for i in 0..40u64 {
            let u = (i as f64 + 0.5) / 40.0;
            let x = hypergeometric_count_large(u, m, t, d) as f64;
            assert!(
                (x - mean).abs() < 8.0 * sigma,
                "u={u}: {x} implausibly far from mean {mean} (σ={sigma})"
            );
        }
        // Monotone in u (a CDF inversion must be).
        let mut prev = 0;
        for i in 0..200u64 {
            let u = (i as f64 + 0.5) / 200.0;
            let x = hypergeometric_count_large(u, m, t, d);
            assert!(x >= prev, "inversion not monotone at u={u}");
            prev = x;
        }
    }

    /// Cache hits must be bit-identical to the direct inversion on the
    /// same raw draw, and misses must be exactly the beyond-horizon
    /// draws.
    #[test]
    fn geo_skip_cache_is_bit_identical_over_its_domain() {
        for &p in &[0.5f64, 0.1, 0.037, 0.9, 1.0 / 3.0, 0.004] {
            let cache = GeoSkipCache::build(p);
            assert_eq!(cache.p(), p);
            let mut raw = 0x9E3779B97F4A7C15u64;
            for _ in 0..4000 {
                raw = raw.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let direct = geometric_skip(unit_open01(raw), p);
                match cache.lookup(raw) {
                    Some(hit) => assert_eq!(
                        hit.to_bits(),
                        direct.to_bits(),
                        "p={p} raw={raw:#x}: cache {hit} ≠ direct {direct}"
                    ),
                    None => assert!(
                        direct > GEO_CACHE_HORIZON as f64,
                        "p={p} raw={raw:#x}: miss but direct skip {direct} is in-horizon"
                    ),
                }
            }
            // Boundary mantissas around every cut point.
            for t in 0..=GEO_CACHE_HORIZON {
                let j = cache.cuts[t];
                for cand in [j.saturating_sub(1).max(1), j, (j + 1).min(1 << 53)] {
                    let raw = (cand - 1) << 11;
                    let direct = geometric_skip(unit_open01(raw), p);
                    if let Some(hit) = cache.lookup(raw) {
                        assert_eq!(hit.to_bits(), direct.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn geo_cache_slot_warms_up_on_a_streak_and_resets_on_change() {
        let mut slot = GeoCacheSlot::default();
        for _ in 0..511 {
            assert!(slot.note(0.25).is_none());
        }
        assert!(slot.note(0.25).is_some(), "warm after the streak");
        assert!(slot.note(0.25).is_some(), "stays warm");
        assert!(slot.note(0.5).is_none(), "new p invalidates");
        for _ in 0..600 {
            slot.note(0.5);
        }
        assert_eq!(slot.note(0.5).map(GeoSkipCache::p), Some(0.5));
    }

    #[test]
    fn bookkeeping_records_and_reports() {
        let mut b = Bookkeeping {
            steps: 10,
            ..Bookkeeping::default()
        };
        b.record_effective(false);
        assert_eq!((b.effective_steps, b.last_effective, b.edge_events), (1, 10, 0));
        b.steps = 17;
        b.record_effective(true);
        assert_eq!((b.edge_events, b.last_output_change, b.last_effective), (1, 17, 17));
        assert_eq!(
            b.stabilized_now(),
            RunOutcome::Stabilized {
                detected_at: 17,
                converged_at: 17,
                last_effective: 17
            }
        );
        // Past u64 (the batched endgame's clock) the reads saturate.
        b.steps = u128::from(u64::MAX) + 5;
        assert_eq!((b.steps(), b.last_effective()), (u64::MAX, 17));
    }
}
