//! Fleet-wide verifier-side expected-image cache.
//!
//! At fleet scale most devices run one of a handful of firmware versions,
//! and with segmented attestation (DESIGN §12) the per-segment digests
//! `d_i` depend only on memory *contents* — they are identical across
//! every device on the same image. Only the outer keyed, counter-bound
//! MAC differs per device. This module interns each distinct expected
//! image once, precomputes its digest vector once, and lets every
//! verification of a same-image device reuse both: verifying N devices on
//! one firmware costs N outer MACs + 1 digest sweep instead of N full
//! recomputes.
//!
//! Structure:
//!
//! - [`ImageKey`] — content-addressed cache key: a domain-separated SHA-1
//!   over `(segment_len, image_len, image_bytes)`. Binding `segment_len`
//!   into the key is the "scope" dimension: the same bytes deployed at a
//!   different digest granularity (or whole-memory-only, `segment_len =
//!   0`) are a *different* cache entry, so a digest vector can never be
//!   consulted at the wrong granularity. The derivation is frozen by
//!   golden vectors (`tests/golden_vectors.rs`).
//! - [`CachedImage`] — one interned baseline: the image bytes plus its
//!   precomputed digest vector and body digest, immutable behind an
//!   [`Arc`] so gateway shards share it without copying.
//! - [`ImageCache`] — the LRU-bounded shared map from key to
//!   [`CachedImage`], with atomic hit/miss/eviction/invalidation stats
//!   that satisfy a CI-checked conservation law
//!   ([`ImageCacheSnapshot::conservation_holds`]).
//! - [`ExpectedView`] — what the verifier actually checks against: the
//!   baseline plus the 8-byte freshness word the prover commits over
//!   `counter_R`, never assembled into a copy. A Whole verify MACs
//!   `baseline[..off] ‖ word ‖ baseline[off + 8..]` where the parts lie;
//!   Segmented and History verification re-digest only the segments
//!   under the word (the 16-byte freshness segment), and a Segmented
//!   verify takes the body digest from the baseline.
//!
//! **Why outer MACs stay per-device:** the combine MAC
//! (`MAC(K, header ‖ … ‖ d_0 ‖ b)`, DESIGN §12) is keyed with the
//! per-device `K_Attest` and bound to the per-request counter and
//! challenge. Caching it would be both useless (it never repeats) and
//! unsound (it is the only thing tying a response to *this* device and
//! *this* request). Only the unkeyed, content-only `d_i` and their body
//! digest `b` are shared.
//!
//! **Invalidation rules:** an entry is dropped when a campaign wave or
//! `UpdateFirmware` re-targets devices away from it
//! ([`ImageCache::invalidate`], driven by
//! `CampaignController::drain_retargets`), and a device is re-bound to
//! the newly interned baseline whenever its expected image changes
//! (`DeviceDirectory::set_expected_memory` swaps the `Arc`) —
//! History-scope rounds therefore never consult digests cached before
//! the claimed epoch: the view they see is always derived from the
//! *current* baseline.

use std::borrow::Cow;
use std::collections::HashSet;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proverguard_crypto::sha1::{Sha1, DIGEST_SIZE};
use proverguard_mcu::SegmentLayout;
use proverguard_telemetry::metrics;

use crate::freshness;
use crate::message::FreshnessField;
use crate::segcache;

/// Domain-separation prefix for [`ImageKey::derive`]. Versioned so a
/// future change to the key layout cannot collide with today's keys.
pub const IMAGE_KEY_DOMAIN: &[u8; 21] = b"proverguard-imgkey-v1";

/// Default number of distinct images the cache retains before LRU
/// eviction. Fleets run a handful of firmware versions; 32 is generous.
pub const DEFAULT_IMAGE_CAPACITY: usize = 32;

/// Content-addressed identity of one expected image at one digest
/// granularity: `SHA1(domain ‖ segment_len ‖ image_len ‖ image)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ImageKey([u8; DIGEST_SIZE]);

impl ImageKey {
    /// Derives the key for `image` deployed at `segment_len` digest
    /// granularity (`0` = whole-memory-only deployment, no digest
    /// vector).
    #[must_use]
    pub fn derive(image: &[u8], segment_len: u32) -> Self {
        metrics::counter_add("imagecache.key_derivation", 1);
        let mut h = Sha1::new();
        h.update(IMAGE_KEY_DOMAIN);
        h.update(&segment_len.to_le_bytes());
        h.update(&(image.len() as u64).to_le_bytes());
        h.update(image);
        ImageKey(h.finalize())
    }

    /// The raw 20-byte key.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8; DIGEST_SIZE] {
        &self.0
    }

    /// Lower-case hex rendering (golden vectors, logs).
    #[must_use]
    pub fn to_hex(&self) -> String {
        self.0.iter().map(|b| format!("{b:02x}")).collect()
    }
}

/// One interned expected image: the baseline bytes plus the digest vector
/// and its body digest, precomputed at interning time. Immutable — shared
/// across every device on this firmware via `Arc`.
#[derive(Debug)]
pub struct CachedImage {
    key: ImageKey,
    bytes: Vec<u8>,
    segment_len: u32,
    digests: Vec<[u8; DIGEST_SIZE]>,
    body: [u8; DIGEST_SIZE],
}

impl CachedImage {
    /// Digests `image` at `segment_len` granularity (one full sweep) and
    /// wraps it. `segment_len = 0` interns the bytes without a digest
    /// vector (whole-memory deployments still skip the per-attempt image
    /// clone).
    #[must_use]
    pub fn compute(image: Vec<u8>, segment_len: u32) -> Self {
        CachedImage::with_key(ImageKey::derive(&image, segment_len), image, segment_len)
    }

    /// [`CachedImage::compute`] for a caller that already derived `key`
    /// from `image` and `segment_len`.
    pub(crate) fn with_key(key: ImageKey, image: Vec<u8>, segment_len: u32) -> Self {
        let digests = if segment_len == 0 {
            Vec::new()
        } else {
            segcache::segment_digests(&image, segment_len as usize)
        };
        let (_, body) = segcache::head_and_body(&digests);
        CachedImage {
            key,
            bytes: image,
            segment_len,
            digests,
            body,
        }
    }

    /// The content-addressed key.
    #[must_use]
    pub fn key(&self) -> &ImageKey {
        &self.key
    }

    /// The baseline image bytes.
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The digest granularity this entry was interned at (0 = none).
    #[must_use]
    pub fn segment_len(&self) -> u32 {
        self.segment_len
    }

    /// The precomputed per-segment digest vector (empty when
    /// `segment_len = 0`).
    #[must_use]
    pub fn digests(&self) -> &[[u8; DIGEST_SIZE]] {
        &self.digests
    }

    /// The body digest of every digest after the head
    /// ([`segcache::body_digest`]); the freshness word never reaches the
    /// body at the recommended layout, so every same-image device shares it.
    #[must_use]
    pub fn body_digest(&self) -> &[u8; DIGEST_SIZE] {
        &self.body
    }
}

/// Point-in-time copy of the cache counters. All counters are cumulative
/// since cache construction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ImageCacheSnapshot {
    /// Key lookups: one per [`ImageCache::intern`] + one per
    /// [`ImageCache::touch`] (i.e. one per verification attempt).
    pub lookups: u64,
    /// Lookups satisfied by a resident entry.
    pub hits: u64,
    /// Lookups that found no resident entry.
    pub misses: u64,
    /// Entries displaced by LRU pressure.
    pub evictions: u64,
    /// Entries dropped explicitly (campaign retarget / firmware update).
    pub invalidations: u64,
    /// Misses repaired for free from a caller-held `Arc` (no digest
    /// recompute) — an evicted entry re-inserted by `touch`.
    pub refills: u64,
    /// Distinct keys ever interned.
    pub distinct_keys: u64,
    /// Full digest sweeps performed at interning time.
    pub digest_sweeps: u64,
    /// Per-device baseline bindings — one per registration or
    /// expected-image change, **never** per verification attempt. (The
    /// benchmark reports it under this name.)
    pub scratch_rebuilds: u64,
}

impl ImageCacheSnapshot {
    /// The CI-checked conservation law: every lookup is a hit or a miss,
    /// and every distinct key missed at least once except where an
    /// eviction was repaired by a refill.
    #[must_use]
    pub fn conservation_holds(&self) -> bool {
        self.lookups == self.hits + self.misses
            && self.misses >= self.distinct_keys
            && self.misses >= self.refills + self.distinct_keys.saturating_sub(self.evictions)
    }

    /// Hit fraction over all lookups (0 when none).
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        if self.lookups == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups as f64
        }
    }
}

/// Difference of two snapshots (for measuring one phase of a run).
impl std::ops::Sub for ImageCacheSnapshot {
    type Output = ImageCacheSnapshot;

    fn sub(self, rhs: ImageCacheSnapshot) -> ImageCacheSnapshot {
        ImageCacheSnapshot {
            lookups: self.lookups.saturating_sub(rhs.lookups),
            hits: self.hits.saturating_sub(rhs.hits),
            misses: self.misses.saturating_sub(rhs.misses),
            evictions: self.evictions.saturating_sub(rhs.evictions),
            invalidations: self.invalidations.saturating_sub(rhs.invalidations),
            refills: self.refills.saturating_sub(rhs.refills),
            distinct_keys: self.distinct_keys.saturating_sub(rhs.distinct_keys),
            digest_sweeps: self.digest_sweeps.saturating_sub(rhs.digest_sweeps),
            scratch_rebuilds: self.scratch_rebuilds.saturating_sub(rhs.scratch_rebuilds),
        }
    }
}

#[derive(Debug)]
struct Slot {
    image: Arc<CachedImage>,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    slots: Vec<Slot>,
    seen: HashSet<[u8; DIGEST_SIZE]>,
    tick: u64,
}

/// The shared, LRU-bounded map from [`ImageKey`] to [`CachedImage`].
///
/// One instance is shared by every gateway shard (and by several
/// gateways, if they are handed the same cache) behind an `Arc`: the
/// critical section under the mutex is a short vector scan + counter
/// bumps — the expensive work (the digest sweep) happens at most once per
/// distinct image, and the returned `Arc<CachedImage>` is read lock-free
/// afterwards.
#[derive(Debug)]
pub struct ImageCache {
    capacity: usize,
    inner: Mutex<Inner>,
    lookups: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    refills: AtomicU64,
    distinct_keys: AtomicU64,
    digest_sweeps: AtomicU64,
    scratch_rebuilds: AtomicU64,
}

impl Default for ImageCache {
    fn default() -> Self {
        ImageCache::new(DEFAULT_IMAGE_CAPACITY)
    }
}

impl ImageCache {
    /// Creates a cache retaining at most `capacity` distinct images
    /// (minimum 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        ImageCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner::default()),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            refills: AtomicU64::new(0),
            distinct_keys: AtomicU64::new(0),
            digest_sweeps: AtomicU64::new(0),
            scratch_rebuilds: AtomicU64::new(0),
        }
    }

    /// Maximum resident entries.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("image cache poisoned").slots.len()
    }

    /// Whether no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Interns `image` at `segment_len` granularity: returns the resident
    /// entry if the identical image is already cached (hit), otherwise
    /// performs the one digest sweep, inserts, and LRU-evicts past
    /// capacity. Either way the key is derived once; an owned image is
    /// moved into a new entry, a borrowed one copied.
    pub fn intern<'a>(
        &self,
        image: impl Into<Cow<'a, [u8]>>,
        segment_len: u32,
    ) -> Arc<CachedImage> {
        let image = image.into();
        let key = ImageKey::derive(&image, segment_len);
        self.lookups.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.lookup", 1);
        {
            let mut inner = self.inner.lock().expect("image cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.iter_mut().find(|s| *s.image.key() == key) {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                metrics::counter_add("imagecache.hit", 1);
                return Arc::clone(&slot.image);
            }
        }
        // Miss: digest outside the lock (the sweep is the expensive part
        // and the image is function-local).
        self.misses.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.miss", 1);
        if segment_len != 0 {
            self.digest_sweeps.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("imagecache.digest_sweep", 1);
        }
        let entry = Arc::new(CachedImage::with_key(key, image.into_owned(), segment_len));
        self.insert(Arc::clone(&entry));
        entry
    }

    /// Per-verification accounting for a caller that already holds the
    /// entry's `Arc`: counts a hit while the entry is resident; if LRU
    /// pressure evicted it, re-inserts the held copy for free (a *refill*
    /// — no digest recompute) and counts a miss.
    pub fn touch(&self, handle: &Arc<CachedImage>) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.lookup", 1);
        let key = *handle.key();
        {
            let mut inner = self.inner.lock().expect("image cache poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(slot) = inner.slots.iter_mut().find(|s| *s.image.key() == key) {
                slot.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                metrics::counter_add("imagecache.hit", 1);
                return;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.refills.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.miss", 1);
        metrics::counter_add("imagecache.refill", 1);
        self.insert(Arc::clone(handle));
    }

    fn insert(&self, entry: Arc<CachedImage>) {
        let mut inner = self.inner.lock().expect("image cache poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let key = *entry.key();
        // A racing thread may have inserted the same key while we were
        // digesting; keep the resident one.
        if let Some(slot) = inner.slots.iter_mut().find(|s| *s.image.key() == key) {
            slot.last_used = tick;
            return;
        }
        if inner.seen.insert(*key.as_bytes()) {
            self.distinct_keys.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("imagecache.distinct_key", 1);
        }
        while inner.slots.len() >= self.capacity {
            let (lru, _) = inner
                .slots
                .iter()
                .enumerate()
                .min_by_key(|(_, s)| s.last_used)
                .map(|(i, s)| (i, s.last_used))
                .expect("capacity >= 1, so a resident slot exists");
            inner.slots.swap_remove(lru);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("imagecache.eviction", 1);
        }
        inner.slots.push(Slot {
            image: entry,
            last_used: tick,
        });
    }

    /// Drops the entry for `key` (campaign retarget / firmware update).
    /// Returns whether an entry was resident.
    pub fn invalidate(&self, key: &ImageKey) -> bool {
        let mut inner = self.inner.lock().expect("image cache poisoned");
        let before = inner.slots.len();
        inner.slots.retain(|s| s.image.key() != key);
        let removed = inner.slots.len() < before;
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            metrics::counter_add("imagecache.invalidation", 1);
        }
        removed
    }

    /// Drops every resident entry. Returns how many were dropped.
    pub fn invalidate_all(&self) -> usize {
        let mut inner = self.inner.lock().expect("image cache poisoned");
        let dropped = inner.slots.len();
        inner.slots.clear();
        if dropped > 0 {
            self.invalidations
                .fetch_add(dropped as u64, Ordering::Relaxed);
            metrics::counter_add("imagecache.invalidation", dropped as u64);
        }
        dropped
    }

    /// Records one per-device baseline binding
    /// ([`ImageCacheSnapshot::scratch_rebuilds`]) — called by the device
    /// directory at registration and expected-image changes so tests can
    /// assert the steady state performs none.
    pub fn note_scratch_rebuild(&self) {
        self.scratch_rebuilds.fetch_add(1, Ordering::Relaxed);
        metrics::counter_add("imagecache.scratch_rebuild", 1);
    }

    /// Snapshots the counters.
    #[must_use]
    pub fn stats(&self) -> ImageCacheSnapshot {
        ImageCacheSnapshot {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            refills: self.refills.load(Ordering::Relaxed),
            distinct_keys: self.distinct_keys.load(Ordering::Relaxed),
            digest_sweeps: self.digest_sweeps.load(Ordering::Relaxed),
            scratch_rebuilds: self.scratch_rebuilds.load(Ordering::Relaxed),
        }
    }
}

/// What the verifier checks a response against: the bytes under the
/// freshness word plus the word the prover commits over them before it
/// MACs memory (§4.2), and, when cached, the baseline whose digest vector
/// it reuses. Building a view copies and allocates nothing.
#[derive(Debug, Clone, Copy)]
pub struct ExpectedView<'a> {
    memory: &'a [u8],
    baseline: Option<&'a CachedImage>,
    word: Option<[u8; 8]>,
}

impl<'a> ExpectedView<'a> {
    /// A view with no baseline and no word: `memory` is the complete
    /// expected image, and every digest is computed from it. The
    /// byte-slice verifier APIs wrap themselves in this.
    #[must_use]
    pub fn uncached(memory: &'a [u8]) -> Self {
        ExpectedView {
            memory,
            baseline: None,
            word: None,
        }
    }

    /// The view a request carrying `field` is checked against on a device
    /// expected to hold `baseline`: the baseline with the committed
    /// counter or timestamp laid over `counter_R`. Nonce and
    /// no-freshness requests, and images too short to hold the word, see
    /// the bare baseline.
    #[must_use]
    pub fn cached(baseline: &'a CachedImage, field: &FreshnessField) -> Self {
        let memory = baseline.bytes();
        let word = freshness::committed_word(field)
            .filter(|_| memory.len() >= freshness::counter_r_offset() + 8);
        ExpectedView {
            memory,
            baseline: Some(baseline),
            word,
        }
    }

    /// The bytes under the word: the complete expected image when the
    /// view carries no word, the image with `counter_R` still at its
    /// baseline value otherwise. Its length is the expected length.
    #[must_use]
    pub fn memory(&self) -> &[u8] {
        self.memory
    }

    /// The expected bytes of `span` as three parts whose concatenation
    /// they are: the bytes before the word, the slice of the word inside
    /// `span`, and the bytes after it (the last two empty when the word
    /// does not reach into `span`).
    pub(crate) fn parts(&self, span: Range<usize>) -> [&[u8]; 3] {
        let off = freshness::counter_r_offset();
        let start = off.clamp(span.start, span.end);
        let end = (off + 8).clamp(span.start, span.end);
        match &self.word {
            Some(word) if start < end => [
                &self.memory[span.start..start],
                &word[start - off..end - off],
                &self.memory[end..span.end],
            ],
            _ => [&self.memory[span], &[], &[]],
        }
    }

    fn layout(&self, segment_len: usize) -> SegmentLayout {
        SegmentLayout::new(self.memory.len(), segment_len)
    }

    fn baseline_at(&self, layout: SegmentLayout) -> Option<&'a CachedImage> {
        let base = self.baseline?;
        (base.segment_len() as usize == layout.seg_len() && base.digests().len() == layout.count())
            .then_some(base)
    }

    /// The segments the word lies in, which differ from the baseline.
    fn word_segments(&self, layout: SegmentLayout) -> Range<usize> {
        match self.word {
            Some(_) => layout.covering(freshness::counter_r_offset(), 8),
            None => 0..0,
        }
    }

    /// The full expected digest vector at `segment_len` granularity: the
    /// baseline vector with only the segments under the word re-digested
    /// when a matching baseline is present, a full sweep otherwise.
    #[must_use]
    pub fn digests(&self, segment_len: usize) -> Vec<[u8; DIGEST_SIZE]> {
        let mut out = Vec::with_capacity(self.layout(segment_len).count());
        self.for_each_digest_run(segment_len, |run| out.extend_from_slice(run));
        out
    }

    /// Feeds the expected digest vector to `emit` in segment order, as
    /// runs of consecutive digests, without allocating: the stretches
    /// around the word come straight from the shared baseline vector, and
    /// each segment under the word is re-digested alone. Without a
    /// matching baseline every segment is digested (a full sweep, counted
    /// as `imagecache.digest_sweep_fallback`). Every digest computed here
    /// counts as `imagecache.segment_digests`.
    pub fn for_each_digest_run(
        &self,
        segment_len: usize,
        mut emit: impl FnMut(&[[u8; DIGEST_SIZE]]),
    ) {
        let layout = self.layout(segment_len);
        let Some(base) = self.baseline_at(layout) else {
            metrics::counter_add("imagecache.digest_sweep_fallback", 1);
            for i in 0..layout.count() {
                emit(&[self.digest_of(i, layout)]);
            }
            return;
        };
        let digests = base.digests();
        let word = self.word_segments(layout);
        emit(&digests[..word.start]);
        for i in word.clone() {
            emit(&[self.digest_of(i, layout)]);
        }
        emit(&digests[word.end..]);
    }

    /// The two digests the combine MAC covers at `segment_len`
    /// ([`segcache::head_and_body`] of the expected digest vector). With a
    /// matching baseline and the word inside the head, only the head is
    /// digested and the body digest is the baseline's. Otherwise the body
    /// digest is computed from the streamed digests.
    #[must_use]
    pub fn combine_digests(&self, segment_len: usize) -> ([u8; DIGEST_SIZE], [u8; DIGEST_SIZE]) {
        let layout = self.layout(segment_len);
        if let Some(base) = self.baseline_at(layout) {
            if self.word_segments(layout).end <= 1 {
                return (self.segment_digest_at(0, segment_len), *base.body_digest());
            }
        }
        let mut head = None;
        let mut body = segcache::body_hasher(layout.count().saturating_sub(1));
        self.for_each_digest_run(segment_len, |mut run| {
            if head.is_none() {
                if let Some((first, rest)) = run.split_first() {
                    head = Some(*first);
                    run = rest;
                }
            }
            body.update(run.as_flattened());
        });
        let head = head.unwrap_or_else(|| self.digest_of(0, layout));
        (head, body.finalize())
    }

    /// The digest of segment `index` alone: straight from the baseline
    /// when the word does not reach into it, recomputed otherwise.
    #[must_use]
    pub fn segment_digest_at(&self, index: usize, segment_len: usize) -> [u8; DIGEST_SIZE] {
        let layout = self.layout(segment_len);
        if !self.word_segments(layout).contains(&index) {
            if let Some(d) = self
                .baseline_at(layout)
                .and_then(|base| base.digests().get(index))
            {
                return *d;
            }
        }
        self.digest_of(index, layout)
    }

    fn digest_of(&self, index: usize, layout: SegmentLayout) -> [u8; DIGEST_SIZE] {
        metrics::counter_add("imagecache.segment_digests", 1);
        segcache::segment_digest_parts(index as u32, &self.parts(layout.span(index)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn image(fill: u8, len: usize) -> Vec<u8> {
        (0..len).map(|i| fill ^ (i as u8)).collect()
    }

    #[test]
    fn key_binds_contents_length_and_granularity() {
        let a = ImageKey::derive(&image(1, 512), 256);
        assert_eq!(a, ImageKey::derive(&image(1, 512), 256));
        assert_ne!(a, ImageKey::derive(&image(2, 512), 256));
        assert_ne!(a, ImageKey::derive(&image(1, 513), 256));
        assert_ne!(a, ImageKey::derive(&image(1, 512), 128));
        assert_ne!(a, ImageKey::derive(&image(1, 512), 0));
        assert_eq!(a.to_hex().len(), 2 * DIGEST_SIZE);
    }

    #[test]
    fn intern_hits_on_identical_images_and_sweeps_once() {
        let cache = ImageCache::new(4);
        let img = image(7, 1024);
        let a = cache.intern(&img, 256);
        let b = cache.intern(&img, 256);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.digests().len(), SegmentLayout::new(1024, 256).count());
        assert_eq!(a.digests().len(), 1024 / 256 + 1);
        assert_eq!(a.digests(), &segcache::segment_digests(&img, 256)[..]);
        let s = cache.stats();
        assert_eq!((s.lookups, s.hits, s.misses), (2, 1, 1));
        assert_eq!(s.digest_sweeps, 1);
        assert!(s.conservation_holds());
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = ImageCache::new(2);
        let a = cache.intern(image(1, 128), 64);
        let _b = cache.intern(image(2, 128), 64);
        cache.touch(&a); // a most recent; b is now LRU
        let _c = cache.intern(image(3, 128), 64);
        assert_eq!(cache.len(), 2);
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        // a survived, b did not.
        cache.touch(&a);
        assert_eq!(cache.stats().hits, s.hits + 1);
        assert!(cache.stats().conservation_holds());
    }

    #[test]
    fn touch_refills_evicted_entry_without_recompute() {
        let cache = ImageCache::new(1);
        let a = cache.intern(image(1, 128), 64);
        let _b = cache.intern(image(2, 128), 64); // evicts a
        let sweeps_before = cache.stats().digest_sweeps;
        cache.touch(&a); // refill, no sweep
        let s = cache.stats();
        assert_eq!(s.refills, 1);
        assert_eq!(s.digest_sweeps, sweeps_before);
        assert!(s.conservation_holds());
        // a is resident again.
        cache.touch(&a);
        assert!(cache.stats().conservation_holds());
    }

    #[test]
    fn invalidate_drops_entry_and_counts() {
        let cache = ImageCache::new(4);
        let a = cache.intern(image(1, 128), 64);
        assert!(cache.invalidate(a.key()));
        assert!(!cache.invalidate(a.key()));
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.is_empty());
        let _ = cache.intern(image(1, 128), 64);
        let _ = cache.intern(image(2, 128), 64);
        assert_eq!(cache.invalidate_all(), 2);
        assert!(cache.stats().conservation_holds());
    }

    fn computed_digests() -> u64 {
        metrics::with(|registry| registry.counter("imagecache.segment_digests").unwrap_or(0))
    }

    /// The overlay view against the uncached reference over a patched
    /// copy, on a 1,000-byte image (partial trailing segment), a 64-byte
    /// one (`gateway_scale`'s size) and a 6-byte one (shorter than the
    /// word), at granularities where the word fills part of a segment,
    /// sits in the split-off head, or straddles two segments.
    #[test]
    fn overlay_view_equals_the_patched_copy() {
        let fields = [
            FreshnessField::Counter(0x0123_4567_89AB_CDEF),
            FreshnessField::Timestamp(7),
            FreshnessField::Nonce([3; 16]),
            FreshnessField::None,
        ];
        for len in [1000, 64, 6] {
            let base_img = image(9, len);
            for seg_len in [4, 64, 256, 512] {
                let baseline = CachedImage::compute(base_img.clone(), seg_len as u32);
                for field in &fields {
                    let mut patched = base_img.clone();
                    freshness::patch_expected_image(&mut patched, field);
                    let view = ExpectedView::cached(&baseline, field);
                    assert_eq!(view.memory(), &base_img[..]);
                    for span in [0..len, 0..3.min(len), 3.min(len)..10.min(len), 5..len] {
                        assert_eq!(view.parts(span.clone()).concat(), &patched[span]);
                    }
                    let reference = segcache::segment_digests(&patched, seg_len);
                    let before = computed_digests();
                    assert_eq!(
                        view.digests(seg_len),
                        reference,
                        "{len} {seg_len} {field:?}"
                    );
                    let computed = computed_digests() - before;
                    for (i, digest) in reference.iter().enumerate() {
                        assert_eq!(view.segment_digest_at(i, seg_len), *digest);
                    }
                    let before = computed_digests();
                    assert_eq!(
                        view.combine_digests(seg_len),
                        segcache::head_and_body(&reference),
                        "{len} {seg_len} {field:?}"
                    );
                    // The head is digested alone when the word lies in
                    // it; a word past the head streams the word segments.
                    let word =
                        SegmentLayout::new(len, seg_len).covering(freshness::counter_r_offset(), 8);
                    let expect = match (patched == base_img, word.end <= 1) {
                        (true, _) => 0,
                        (false, true) => 1,
                        (false, false) => word.len() as u64,
                    };
                    assert_eq!(computed_digests() - before, expect, "{len} {seg_len}");
                    if patched == base_img {
                        // Nonce, none, or no room for the word: the view
                        // is the bare baseline and digests nothing.
                        assert_eq!(view.digests(seg_len), baseline.digests());
                        assert_eq!(computed, 0);
                    } else {
                        let word = SegmentLayout::new(len, seg_len)
                            .covering(freshness::counter_r_offset(), 8);
                        assert_eq!(computed, word.len() as u64);
                    }
                }
            }
        }
    }

    #[test]
    fn view_falls_back_on_mismatched_granularity() {
        // Baseline at 256, asked at 128.
        let img = image(9, 1024);
        let baseline = CachedImage::compute(img.clone(), 256);
        let field = FreshnessField::Counter(5);
        let mut patched = img;
        freshness::patch_expected_image(&mut patched, &field);
        let view = ExpectedView::cached(&baseline, &field);
        assert_eq!(view.digests(128), segcache::segment_digests(&patched, 128));
        assert_eq!(
            view.combine_digests(128),
            segcache::head_and_body(&segcache::segment_digests(&patched, 128))
        );
        assert_eq!(
            view.segment_digest_at(3, 128),
            segcache::segment_digests(&patched, 128)[3]
        );
    }
}
