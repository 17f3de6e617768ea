//! A miniature search engine over the corpus: inverted index with TF-IDF
//! ranking. This is the "index into the web" the paper's intruder uses.
//!
//! Index tokens are *interned*: each distinct token string is stored once
//! in the term table and postings live in dense per-term vectors keyed by
//! term id (the corpus keys on ~a hundred distinct name tokens, so
//! interning removes almost all per-posting string traffic). Two postings
//! orders are kept per term: page-ascending (the classic scan + binary
//! search order) and score-contribution-descending (the order the top-k
//! searcher consumes, enabling its early exit).

use crate::page::{tokenize, WebPage};
use fred_data::ShardPlan;
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a. The build interner and the query term cache hash hundreds of
/// thousands of short tokens; the default SipHash costs more than the
/// rest of the merge combined.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<Fnv>>;

/// An inverted-index search engine over [`WebPage`]s.
#[derive(Debug, Clone)]
pub struct SearchEngine {
    pages: Vec<WebPage>,
    /// Interned token → dense term id.
    terms: FnvMap<String, u32>,
    /// Per-term postings `(page, term frequency)`, page-ascending (by
    /// construction: pages are merged in ascending order).
    postings: Vec<Vec<(u32, u32)>>,
    /// Per-term postings re-sorted by score contribution: `tf`
    /// descending, then page ascending. Fuel for
    /// [`search_topk_with`](SearchEngine::search_topk_with)'s early exit.
    by_contribution: Vec<Vec<(u32, u32)>>,
    /// Per-term IDF (`ln(n / df) + 1`), precomputed at build.
    idf: Vec<f64>,
}

/// A ranked search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Index into [`SearchEngine::pages`].
    pub page: usize,
    /// TF-IDF relevance score.
    pub score: f64,
}

/// One posting's score contribution.
#[inline]
fn contribution(tf: u32, idf: f64) -> f64 {
    (1.0 + f64::from(tf).ln()) * idf
}

/// Distinct lowercased tokens of one page in first-occurrence order with
/// term frequencies. Produces exactly the tokens of
/// [`tokenize`]`(text)` (ASCII tokens are lowercased into the reusable
/// `buf`, everything else falls back to `str::to_lowercase`) but without
/// per-repeat allocation or hashing: a page holds a few dozen distinct
/// tokens, so counting is a linear scan.
fn page_term_counts(text: &str, buf: &mut String, out: &mut Vec<(String, u32)>) {
    out.clear();
    for raw in text
        .split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
    {
        buf.clear();
        if raw.is_ascii() {
            for b in raw.bytes() {
                buf.push(b.to_ascii_lowercase() as char);
            }
        } else {
            buf.push_str(&raw.to_lowercase());
        }
        match out.iter_mut().find(|(t, _)| t == buf) {
            Some((_, count)) => *count += 1,
            None => out.push((buf.clone(), 1)),
        }
    }
}

/// The `(score desc, page asc)` hit total order used everywhere.
#[inline]
fn hit_beats(score: f64, page: u32, best_score: f64, best_page: u32) -> bool {
    score > best_score || (score == best_score && page < best_page)
}

/// Merges partial hit lists (e.g. per-shard exact top-`k`s over disjoint
/// page sets) into the global top-`limit` under the canonical
/// `(score desc, page asc)` order. With exact per-shard scores this is
/// bit-identical to running the query against the union of the shards.
pub fn merge_hits(mut hits: Vec<SearchHit>, limit: usize) -> Vec<SearchHit> {
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.page.cmp(&b.page))
    });
    hits.truncate(limit);
    hits
}

/// One layer's term lists as seen by the top-k scanner: either the full
/// engine's global lists or one shard's slice of them. Term ids and page
/// ids are always global; a shard simply returns the subset of each list
/// whose pages it owns (empty when the term never occurs in the shard).
trait TermLists {
    /// Page-ascending postings for a global term id.
    fn page_ascending(&self, tid: u32) -> &[(u32, u32)];
    /// The same postings in `(tf desc, page asc)` contribution order.
    fn contribution_order(&self, tid: u32) -> &[(u32, u32)];
}

impl TermLists for SearchEngine {
    fn page_ascending(&self, tid: u32) -> &[(u32, u32)] {
        &self.postings[tid as usize]
    }

    fn contribution_order(&self, tid: u32) -> &[(u32, u32)] {
        &self.by_contribution[tid as usize]
    }
}

/// Looks `page` up in the page-ascending `list`, galloping forward from
/// `*from` (every earlier entry is known to hold a smaller page), and
/// leaves `*from` at the first entry whose page is not below `page`.
#[inline]
fn gallop(list: &[(u32, u32)], from: &mut usize, page: u32) -> Option<u32> {
    let tail = &list[*from..];
    let mut end = 1;
    while end < tail.len() && tail[end - 1].0 < page {
        end *= 2;
    }
    let lo = end / 2;
    *from += lo + tail[lo..end.min(tail.len())].partition_point(|&(p, _)| p < page);
    match list.get(*from) {
        Some(&(p, tf)) if p == page => Some(tf),
        _ => None,
    }
}

/// The early-exit top-`limit` scan over one set of term lists — the body
/// of [`SearchEngine::search_topk_with`], shared with the shard scans so
/// every path runs the exact same code.
///
/// Exact under the `(score desc, page asc)` hit order, for any set of
/// lists and any scan order:
///
/// * A page is scored in full the moment it is first seen, accumulating
///   in query-term order — the exhaustive path's addition sequence.
/// * Call a page's *first list* the first list in scan order holding it.
///   While scanning list `i` from a posting onward, every unseen page
///   whose first list is `i` scores at most `ub`: the sum, in query-term
///   order with one addend per query occurrence, of the current
///   posting's contribution for list `i`, the contribution-order head of
///   each list after `i`, and nothing for each list before `i`. Each
///   addend bounds the page's own addend at that position and rounded
///   addition is monotone, so `ub ≥ score` holds exactly, not merely up
///   to rounding.
/// * Scanning list `i` stops once no such page can beat the current
///   `limit`-th hit `(kth_score, kth_page)`: when `ub < kth_score`, or
///   when `ub == kth_score` inside the list's last `tf` block (where
///   pages ascend) past `kth_page`, so every later page loses the tie on
///   page id. The boundary only improves afterwards, so those pages stay
///   out; a page of the skipped remainder whose first list is earlier
///   was either seen there or bounded out when that list stopped.
fn topk_scan<L: TermLists>(
    lists: &L,
    idf: &[f64],
    resolved: &[u32],
    limit: usize,
    pages: usize,
    scratch: &mut SearchScratch,
) -> Vec<SearchHit> {
    // Scan order: distinct lists, rarest first (stable on equal
    // lengths), so the bound collapses as early as possible.
    let mut scan: Vec<u32> = resolved.to_vec();
    scan.sort_unstable();
    scan.dedup();
    scan.sort_by_key(|&t| lists.page_ascending(t).len());
    // Per query position: its list's scan index, and whether that list
    // was scanned to the end (a page still unseen afterwards is absent
    // from it, so scoring skips the lookup).
    let slot: Vec<usize> = resolved
        .iter()
        .map(|t| {
            scan.iter()
                .position(|s| s == t)
                .expect("every query term is scanned")
        })
        .collect();
    let mut exhausted = vec![false; resolved.len()];
    // Per query position: the gallop cursor into its page-ascending list.
    let mut cursor = vec![0usize; resolved.len()];
    let head: Vec<f64> = scan
        .iter()
        .map(|&t| {
            lists
                .contribution_order(t)
                .first()
                .map_or(0.0, |&(_, tf)| contribution(tf, idf[t as usize]))
        })
        .collect();

    scratch.begin(pages);
    let mut tracker = TopHits::new(limit);
    for (li, &tid) in scan.iter().enumerate() {
        let list = lists.contribution_order(tid);
        let min_tf = list.last().map_or(0, |&(_, tf)| tf);
        let term_idf = idf[tid as usize];
        let (mut block_tf, mut c, mut ub) = (0u32, 0.0f64, 0.0f64);
        let mut completed = true;
        for &(page, tf) in list {
            if tf != block_tf {
                // A new `tf` block: the contribution and the bound step
                // down, and pages restart from the lowest id.
                block_tf = tf;
                c = contribution(tf, term_idf);
                ub = 0.0;
                for &s in &slot {
                    if s == li {
                        ub += c;
                    } else if s > li {
                        ub += head[s];
                    }
                }
                cursor.fill(0);
            }
            if tracker.is_full() {
                let (kth_score, kth_page) = tracker.worst();
                if ub < kth_score || (ub == kth_score && tf == min_tf && page > kth_page) {
                    completed = false;
                    break;
                }
            }
            if scratch.mark[page as usize] == scratch.epoch {
                continue; // already scored on first sight
            }
            scratch.mark[page as usize] = scratch.epoch;
            let mut score = 0.0f64;
            for (q, &t) in resolved.iter().enumerate() {
                if slot[q] == li {
                    score += c;
                } else if !exhausted[q] {
                    let other = lists.page_ascending(t);
                    if let Some(tf_t) = gallop(other, &mut cursor[q], page) {
                        score += contribution(tf_t, idf[t as usize]);
                    }
                }
            }
            tracker.offer(score, page);
        }
        if completed {
            for (q, &s) in slot.iter().enumerate() {
                exhausted[q] |= s == li;
            }
        }
    }
    tracker.into_hits()
}

impl SearchEngine {
    /// Builds the index over a corpus of pages.
    ///
    /// Per-page tokenization (the hot part of world build at large corpus
    /// sizes) runs across worker threads; each page's counts come out in
    /// first-occurrence order — a function of the text alone — so the
    /// sequential page-order merge, and therefore the whole index, is
    /// identical regardless of thread count.
    pub fn build(pages: Vec<WebPage>) -> Self {
        let page_counts: Vec<Vec<(String, u32)>> = pages
            .par_iter()
            .map_init(String::new, |buf, page| {
                let mut counts = Vec::new();
                page_term_counts(&page.text, buf, &mut counts);
                counts
            })
            .collect();

        let mut terms: FnvMap<String, u32> = FnvMap::default();
        let mut postings: Vec<Vec<(u32, u32)>> = Vec::new();
        for (pi, counts) in page_counts.into_iter().enumerate() {
            for (tok, count) in counts {
                let next_id = postings.len() as u32;
                let id = *terms.entry(tok).or_insert(next_id);
                if id == next_id {
                    postings.push(Vec::new());
                }
                postings[id as usize].push((pi as u32, count));
            }
        }

        let n = pages.len() as f64;
        let idf: Vec<f64> = postings
            .iter()
            .map(|p| (n / p.len() as f64).ln() + 1.0)
            .collect();
        let by_contribution: Vec<Vec<(u32, u32)>> = postings
            .par_iter()
            .map(|p| {
                let mut sorted = p.clone();
                sorted.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                sorted
            })
            .collect();
        SearchEngine {
            pages,
            terms,
            postings,
            by_contribution,
            idf,
        }
    }

    /// Number of pages indexed.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// The indexed pages.
    pub fn pages(&self) -> &[WebPage] {
        &self.pages
    }

    /// Page by index.
    pub fn page(&self, idx: usize) -> Option<&WebPage> {
        self.pages.get(idx)
    }

    /// Deduplicates page display names: returns each page's dense
    /// name id plus the distinct names in first-occurrence order.
    ///
    /// A corpus renders several pages per person and most display names
    /// verbatim, so the distinct-name set is a fraction of the page
    /// count. Name-comparison consumers (the harvest's agreement cache
    /// and its per-name comparator keys) key their work on the name id
    /// instead of the page id and skip the duplicates entirely.
    pub fn distinct_display_names(&self) -> (Vec<u32>, Vec<&str>) {
        let mut name_of_page = Vec::with_capacity(self.pages.len());
        let mut ids: FnvMap<&str, u32> = FnvMap::default();
        let mut names: Vec<&str> = Vec::new();
        for page in &self.pages {
            let next = names.len() as u32;
            let id = *ids.entry(&page.display_name).or_insert(next);
            if id == next {
                names.push(&page.display_name);
            }
            name_of_page.push(id);
        }
        (name_of_page, names)
    }

    /// Searches for pages matching the query, ranked by summed TF-IDF of
    /// the query terms. Returns at most `limit` hits.
    ///
    /// This mirrors a name search: querying `"Robert Smith"` scores pages
    /// mentioning both tokens highest, with rare surnames dominating.
    /// This is the exhaustive reference path: every posting of every
    /// query term is scanned and the full candidate set sorted. The
    /// accelerated paths ([`search_with`](SearchEngine::search_with),
    /// [`search_topk_with`](SearchEngine::search_topk_with)) are pinned
    /// bit-identical to it by property test.
    pub fn search(&self, query: &str, limit: usize) -> Vec<SearchHit> {
        let terms = tokenize(query);
        if terms.is_empty() || self.pages.is_empty() {
            return Vec::new();
        }
        let mut scores: HashMap<usize, f64> = HashMap::new();
        for term in &terms {
            if let Some(&tid) = self.terms.get(term) {
                let idf = self.idf[tid as usize];
                for &(page, tf) in &self.postings[tid as usize] {
                    *scores.entry(page as usize).or_insert(0.0) += contribution(tf, idf);
                }
            }
        }
        let mut hits: Vec<SearchHit> = scores
            .into_iter()
            .map(|(page, score)| SearchHit { page, score })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.page.cmp(&b.page))
        });
        hits.truncate(limit);
        hits
    }

    /// Convenience: searches and returns the hit pages directly.
    pub fn search_pages(&self, query: &str, limit: usize) -> Vec<&WebPage> {
        self.search(query, limit)
            .into_iter()
            .filter_map(|h| self.pages.get(h.page))
            .collect()
    }

    /// A reusable scratch sized for this corpus; see
    /// [`search_with`](SearchEngine::search_with).
    pub fn scratch(&self) -> SearchScratch {
        SearchScratch {
            scores: vec![0.0; self.pages.len()],
            mark: vec![0; self.pages.len()],
            epoch: 0,
            touched: Vec::new(),
        }
    }

    /// An empty per-batch term cache; see
    /// [`search_with`](SearchEngine::search_with).
    pub fn term_cache(&self) -> TermCache {
        TermCache::default()
    }

    /// Resolves one query token to its term id through the cache.
    #[inline]
    fn resolve_term(&self, term: String, cache: &mut TermCache) -> Option<u32> {
        *cache
            .map
            .entry(term)
            .or_insert_with_key(|t| self.terms.get(t).copied())
    }

    /// [`search`](SearchEngine::search) with caller-provided scratch: the
    /// dense score accumulator replaces the per-call `HashMap`, and the
    /// term cache skips repeated token→term-id resolutions across queries
    /// of one batch (release names share a small token vocabulary, so the
    /// hit rate is high). Results are bit-identical to `search` — scores
    /// accumulate in the same term order and the final ranking comparator
    /// is a total order.
    pub fn search_with(
        &self,
        query: &str,
        limit: usize,
        scratch: &mut SearchScratch,
        cache: &mut TermCache,
    ) -> Vec<SearchHit> {
        let terms = tokenize(query);
        if terms.is_empty() || self.pages.is_empty() {
            return Vec::new();
        }
        scratch.begin(self.pages.len());
        for term in terms {
            if let Some(tid) = self.resolve_term(term, cache) {
                let idf = self.idf[tid as usize];
                for &(page, tf) in &self.postings[tid as usize] {
                    scratch.add(page as usize, contribution(tf, idf));
                }
            }
        }
        let mut hits: Vec<SearchHit> = scratch
            .touched
            .iter()
            .map(|&page| SearchHit {
                page: page as usize,
                score: scratch.scores[page as usize],
            })
            .collect();
        hits.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.page.cmp(&b.page))
        });
        hits.truncate(limit);
        hits
    }

    /// Top-`limit` search with early exit — the harvest fast path.
    ///
    /// Exact, not approximate: returns precisely what
    /// [`search`](SearchEngine::search) returns (same pages, same
    /// bit-identical scores, same order), established as follows.
    ///
    /// * Term lists are scanned rarest-first in their pre-sorted
    ///   contribution-descending order (`tf` descending, then page
    ///   ascending), and a page's full score is computed the moment it is
    ///   first seen, accumulating in query-term order — the exact
    ///   float-addition sequence of the exhaustive path. Lookups into the
    ///   other terms' page-ascending lists gallop forward, since pages
    ///   ascend within each `tf` block.
    /// * The bound `ub` on any unseen page is summed in that same
    ///   query-term order, so by monotone rounding it is never below such
    ///   a page's score — not even by an ulp.
    /// * Once `limit` candidates are held, a list stops when no unseen
    ///   page can *beat* the `limit`-th hit under `(score desc, page
    ///   asc)`: `ub` falls below its score, or equals it in the list's
    ///   last `tf` block past its page, where every later page loses the
    ///   tie on page id. The second case is the common one for name
    ///   queries: many people share a first and last name, so the
    ///   boundary is a tie among pages holding both tokens, and the
    ///   remaining postings — typically the long tail of a common name
    ///   token — are never touched.
    ///
    /// Selection is a bounded worst-out tracker instead of a full sort of
    /// every candidate, which is the other constant-factor win at harvest
    /// scale (hundreds of candidates, `limit` of eight).
    pub fn search_topk_with(
        &self,
        query: &str,
        limit: usize,
        scratch: &mut SearchScratch,
        cache: &mut TermCache,
    ) -> Vec<SearchHit> {
        if limit == 0 {
            return Vec::new();
        }
        let tokens = tokenize(query);
        if tokens.is_empty() || self.pages.is_empty() {
            return Vec::new();
        }
        // Query-order term ids (duplicates kept: they contribute twice,
        // exactly like the exhaustive accumulation).
        let resolved: Vec<u32> = tokens
            .into_iter()
            .filter_map(|t| self.resolve_term(t, cache))
            .collect();
        if resolved.is_empty() {
            return Vec::new();
        }
        topk_scan(self, &self.idf, &resolved, limit, self.pages.len(), scratch)
    }

    /// [`search_topk_with`](SearchEngine::search_topk_with) with one-shot
    /// scratch (convenience for tests and single queries).
    pub fn search_topk(&self, query: &str, limit: usize) -> Vec<SearchHit> {
        let mut scratch = self.scratch();
        let mut cache = self.term_cache();
        self.search_topk_with(query, limit, &mut scratch, &mut cache)
    }

    /// Batched multi-name queries: one scratch score map and one term
    /// cache amortized across the whole batch. `search_many(qs, l)[i]` is
    /// bit-identical to `search(qs[i], l)` for every `i`.
    pub fn search_many<S: AsRef<str>>(&self, queries: &[S], limit: usize) -> Vec<Vec<SearchHit>> {
        let mut scratch = self.scratch();
        let mut cache = self.term_cache();
        queries
            .iter()
            .map(|q| self.search_with(q.as_ref(), limit, &mut scratch, &mut cache))
            .collect()
    }
}

/// One shard's slice of the index: the postings of the pages it owns,
/// keyed by *global* term id through a dense local remap so shard lists
/// stay compact while sharing the engine-wide term table and IDF.
#[derive(Debug, Clone)]
struct EngineShard {
    /// Global term id → local list id (`u32::MAX` when the term never
    /// occurs in this shard).
    local_of_global: Vec<u32>,
    /// Local postings `(global page, tf)`, page-ascending (inherited from
    /// the global lists: filtering an ascending list keeps it ascending).
    postings: Vec<Vec<(u32, u32)>>,
    /// Local postings in `(tf desc, page asc)` contribution order.
    by_contribution: Vec<Vec<(u32, u32)>>,
    /// Number of pages owned by the shard.
    pages: usize,
}

const NO_LOCAL_TERM: u32 = u32::MAX;

impl TermLists for EngineShard {
    fn page_ascending(&self, tid: u32) -> &[(u32, u32)] {
        match self.local_of_global.get(tid as usize) {
            Some(&local) if local != NO_LOCAL_TERM => &self.postings[local as usize],
            _ => &[],
        }
    }

    fn contribution_order(&self, tid: u32) -> &[(u32, u32)] {
        match self.local_of_global.get(tid as usize) {
            Some(&local) if local != NO_LOCAL_TERM => &self.by_contribution[local as usize],
            _ => &[],
        }
    }
}

/// A document-partitioned view of a [`SearchEngine`]: every page is owned
/// by exactly one shard (keyed on its display name through a
/// [`ShardPlan`]), each shard holds only its own postings, and a query is
/// answered scatter-gather — exact top-`k` per shard, merged under the
/// global `(score desc, page asc)` order.
///
/// Sharing the base engine's term table and IDF keeps per-shard scores
/// bit-identical to the full engine's: a page's every term lives in its
/// own shard's lists, so its score accumulates the exact same float
/// sequence, and the global top-`k` is a subset of the per-shard top-`k`
/// union. [`search_topk_with`](ShardedSearchEngine::search_topk_with) is
/// therefore pinned bit-identical to
/// [`SearchEngine::search_topk_with`] by property test for every shard
/// count.
#[derive(Debug, Clone)]
pub struct ShardedSearchEngine<'a> {
    base: &'a SearchEngine,
    plan: ShardPlan,
    /// Owning shard of each page.
    shard_of_page: Vec<u32>,
    shards: Vec<EngineShard>,
}

impl<'a> ShardedSearchEngine<'a> {
    /// Partitions the base engine's postings by each page's display-name
    /// blocking key under `plan`.
    pub fn build(base: &'a SearchEngine, plan: ShardPlan) -> Self {
        let shard_of_page: Vec<u32> = base
            .pages
            .iter()
            .map(|p| plan.shard_of(&p.display_name) as u32)
            .collect();
        let n_terms = base.postings.len();
        let mut shards: Vec<EngineShard> = (0..plan.shards())
            .map(|_| EngineShard {
                local_of_global: vec![NO_LOCAL_TERM; n_terms],
                postings: Vec::new(),
                by_contribution: Vec::new(),
                pages: 0,
            })
            .collect();
        for &s in &shard_of_page {
            shards[s as usize].pages += 1;
        }
        for (tid, list) in base.postings.iter().enumerate() {
            for &(page, tf) in list {
                let shard = &mut shards[shard_of_page[page as usize] as usize];
                let mut local = shard.local_of_global[tid];
                if local == NO_LOCAL_TERM {
                    local = shard.postings.len() as u32;
                    shard.local_of_global[tid] = local;
                    shard.postings.push(Vec::new());
                }
                shard.postings[local as usize].push((page, tf));
            }
        }
        for shard in &mut shards {
            shard.by_contribution = shard
                .postings
                .par_iter()
                .map(|p| {
                    let mut sorted = p.clone();
                    sorted.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                    sorted
                })
                .collect();
        }
        ShardedSearchEngine {
            base,
            plan,
            shard_of_page,
            shards,
        }
    }

    /// The underlying unsharded engine (pages, term table, IDF).
    pub fn base(&self) -> &'a SearchEngine {
        self.base
    }

    /// The plan the partition was built under.
    pub fn plan(&self) -> ShardPlan {
        self.plan
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Owning shard of a page.
    pub fn shard_of_page(&self, page: usize) -> usize {
        self.shard_of_page[page] as usize
    }

    /// Number of pages owned by shard `shard`.
    pub fn pages_in_shard(&self, shard: usize) -> usize {
        self.shards[shard].pages
    }

    /// Exact top-`limit` over one shard's postings only: what that
    /// shard's worker can answer without touching shared state.
    pub fn search_topk_shard(
        &self,
        shard: usize,
        query: &str,
        limit: usize,
        scratch: &mut SearchScratch,
        cache: &mut TermCache,
    ) -> Vec<SearchHit> {
        match self.resolve(query, limit, cache) {
            Some(resolved) => topk_scan(
                &self.shards[shard],
                &self.base.idf,
                &resolved,
                limit,
                self.base.pages.len(),
                scratch,
            ),
            None => Vec::new(),
        }
    }

    /// Scatter-gather top-`limit`: exact per-shard top-`limit` from every
    /// shard, merged under `(score desc, page asc)`. Bit-identical to
    /// [`SearchEngine::search_topk_with`] on the base engine.
    pub fn search_topk_with(
        &self,
        query: &str,
        limit: usize,
        scratch: &mut SearchScratch,
        cache: &mut TermCache,
    ) -> Vec<SearchHit> {
        self.scatter_gather(query, limit, scratch, cache, None)
    }

    /// Scatter-gather over the surviving shards only: `alive[s] == false`
    /// drops shard `s`'s pages from the candidate pool entirely — the
    /// degraded-mode search behind the harvest's shard-loss tolerance.
    /// With every shard alive this is exactly
    /// [`search_topk_with`](ShardedSearchEngine::search_topk_with).
    pub fn search_topk_surviving(
        &self,
        query: &str,
        limit: usize,
        alive: &[bool],
        scratch: &mut SearchScratch,
        cache: &mut TermCache,
    ) -> Vec<SearchHit> {
        self.scatter_gather(query, limit, scratch, cache, Some(alive))
    }

    /// Shared query-token resolution against the base term table; `None`
    /// short-circuits the empty-query/empty-corpus/zero-limit cases the
    /// same way the unsharded paths do.
    fn resolve(&self, query: &str, limit: usize, cache: &mut TermCache) -> Option<Vec<u32>> {
        if limit == 0 || self.base.pages.is_empty() {
            return None;
        }
        let tokens = tokenize(query);
        if tokens.is_empty() {
            return None;
        }
        let resolved: Vec<u32> = tokens
            .into_iter()
            .filter_map(|t| self.base.resolve_term(t, cache))
            .collect();
        if resolved.is_empty() {
            None
        } else {
            Some(resolved)
        }
    }

    fn scatter_gather(
        &self,
        query: &str,
        limit: usize,
        scratch: &mut SearchScratch,
        cache: &mut TermCache,
        alive: Option<&[bool]>,
    ) -> Vec<SearchHit> {
        let resolved = match self.resolve(query, limit, cache) {
            Some(r) => r,
            None => return Vec::new(),
        };
        // Every page is owned by exactly one shard, so the partial lists
        // are disjoint and the merge needs no dedup. Any page of the true
        // top-`limit` beats `limit` rivals globally, hence also within
        // its own shard, so it survives its shard's exact top-`limit` and
        // reaches the merge.
        let mut merged: Vec<SearchHit> = Vec::new();
        for (si, shard) in self.shards.iter().enumerate() {
            if alive.is_some_and(|a| !a.get(si).copied().unwrap_or(true)) {
                continue;
            }
            merged.extend(topk_scan(
                shard,
                &self.base.idf,
                &resolved,
                limit,
                self.base.pages.len(),
                scratch,
            ));
        }
        merge_hits(merged, limit)
    }
}

/// Bounded best-`k` tracker under the `(score desc, page asc)` hit order:
/// a candidate enters only by beating the current worst member, so the
/// final contents are exactly the unique k-best set.
struct TopHits {
    k: usize,
    items: Vec<(f64, u32)>,
    /// Index of the current worst member once full.
    worst: usize,
}

impl TopHits {
    fn new(k: usize) -> Self {
        TopHits {
            k,
            items: Vec::with_capacity(k),
            worst: 0,
        }
    }

    #[inline]
    fn is_full(&self) -> bool {
        self.items.len() == self.k
    }

    /// The current worst `(score, page)`; only meaningful when full.
    #[inline]
    fn worst(&self) -> (f64, u32) {
        self.items[self.worst]
    }

    #[inline]
    fn offer(&mut self, score: f64, page: u32) {
        if self.items.len() < self.k {
            self.items.push((score, page));
            if self.items.len() == self.k {
                self.find_worst();
            }
        } else {
            let (ws, wp) = self.items[self.worst];
            if hit_beats(score, page, ws, wp) {
                self.items[self.worst] = (score, page);
                self.find_worst();
            }
        }
    }

    fn find_worst(&mut self) {
        let mut wi = 0;
        for i in 1..self.items.len() {
            let (s, p) = self.items[i];
            let (ws, wp) = self.items[wi];
            // `i` is worse than `wi` when `wi` beats it.
            if hit_beats(ws, wp, s, p) {
                wi = i;
            }
        }
        self.worst = wi;
    }

    fn into_hits(mut self) -> Vec<SearchHit> {
        self.items.sort_by(|a, b| {
            b.0.partial_cmp(&a.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.1.cmp(&b.1))
        });
        self.items
            .into_iter()
            .map(|(score, page)| SearchHit {
                page: page as usize,
                score,
            })
            .collect()
    }
}

/// Reusable dense per-page score accumulator for
/// [`SearchEngine::search_with`]: generation-stamped so resetting between
/// queries is O(1) instead of O(pages).
#[derive(Debug, Clone)]
pub struct SearchScratch {
    scores: Vec<f64>,
    /// `scores[p]` is live iff `mark[p] == epoch`.
    mark: Vec<u32>,
    epoch: u32,
    /// Pages touched by the current query, in first-touch order.
    touched: Vec<u32>,
}

impl SearchScratch {
    fn begin(&mut self, pages: usize) {
        if self.scores.len() < pages {
            self.scores.resize(pages, 0.0);
            self.mark.resize(pages, 0);
        }
        self.touched.clear();
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Wrapped: stale marks could alias the fresh epoch.
            self.mark.fill(0);
            self.epoch = 1;
        }
    }

    #[inline]
    fn add(&mut self, page: usize, score: f64) {
        if self.mark[page] == self.epoch {
            self.scores[page] += score;
        } else {
            self.mark[page] = self.epoch;
            self.scores[page] = score;
            self.touched.push(page as u32);
        }
    }
}

/// Per-batch memo of token → term id resolved against one
/// [`SearchEngine`]; negative lookups are cached too.
#[derive(Default)]
pub struct TermCache {
    map: FnvMap<String, Option<u32>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    fn corpus() -> SearchEngine {
        let pages = vec![
            WebPage::render(
                0,
                Some(0),
                PageKind::Homepage,
                "Robert Smith",
                "CEO",
                "Microsoft",
                Some(5430.0),
            ),
            WebPage::render(
                1,
                Some(1),
                PageKind::Directory,
                "Alice Walker",
                "Manager",
                "Verizon",
                None,
            ),
            WebPage::render(
                2,
                Some(0),
                PageKind::PropertyRecord,
                "Robert Smith",
                "",
                "",
                Some(5430.0),
            ),
            WebPage::render(3, None, PageKind::News, "Robert Jones", "", "Acme", None),
        ];
        SearchEngine::build(pages)
    }

    #[test]
    fn name_search_ranks_both_token_pages_first() {
        let e = corpus();
        let hits = e.search("Robert Smith", 10);
        assert!(!hits.is_empty());
        // Pages 0 and 2 mention both tokens; page 3 only "Robert".
        let top2: Vec<usize> = hits.iter().take(2).map(|h| h.page).collect();
        assert!(top2.contains(&0) && top2.contains(&2), "hits: {hits:?}");
        let robert_jones = hits.iter().find(|h| h.page == 3).unwrap();
        assert!(robert_jones.score < hits[0].score);
    }

    #[test]
    fn unrelated_query_returns_nothing() {
        let e = corpus();
        assert!(e.search("zzyzx unknown", 10).is_empty());
        assert!(e.search("", 10).is_empty());
        assert!(e.search_topk("zzyzx unknown", 10).is_empty());
        assert!(e.search_topk("", 10).is_empty());
    }

    #[test]
    fn limit_respected() {
        let e = corpus();
        let hits = e.search("Robert", 1);
        assert_eq!(hits.len(), 1);
        assert_eq!(e.search_topk("Robert", 1).len(), 1);
        assert!(e.search_topk("Robert", 0).is_empty());
    }

    #[test]
    fn rare_terms_weigh_more() {
        let e = corpus();
        // "walker" appears once, "robert" in two pages: a query for Alice
        // Walker must put page 1 first.
        let hits = e.search("Alice Walker", 10);
        assert_eq!(hits[0].page, 1);
    }

    #[test]
    fn distinct_display_names_dedupe_and_align() {
        let e = corpus();
        let (ids, names) = e.distinct_display_names();
        assert_eq!(ids.len(), e.len());
        // Pages 0 and 2 are both "Robert Smith".
        assert_eq!(ids[0], ids[2]);
        assert_ne!(ids[0], ids[1]);
        assert_eq!(names.len(), 3);
        for (page, &id) in e.pages().iter().zip(&ids) {
            assert_eq!(page.display_name, names[id as usize]);
        }
        let empty = SearchEngine::build(vec![]);
        let (ids, names) = empty.distinct_display_names();
        assert!(ids.is_empty() && names.is_empty());
    }

    #[test]
    fn search_pages_resolves() {
        let e = corpus();
        let pages = e.search_pages("Verizon", 5);
        assert_eq!(pages.len(), 1);
        assert_eq!(pages[0].display_name, "Alice Walker");
    }

    #[test]
    fn empty_engine() {
        let e = SearchEngine::build(vec![]);
        assert!(e.is_empty());
        assert!(e.search("anything", 5).is_empty());
        assert!(e.search_topk("anything", 5).is_empty());
        assert!(e.search_many(&["anything"], 5)[0].is_empty());
    }

    #[test]
    fn search_many_matches_search_bit_for_bit() {
        let e = corpus();
        let queries = [
            "Robert Smith",
            "Alice Walker",
            "Robert",
            "Verizon",
            "Robert Smith", // repeat: exercises the warm term cache
            "zzyzx unknown",
            "",
            "Robert Jones Acme",
        ];
        for limit in [1usize, 2, 10] {
            let batched = e.search_many(&queries, limit);
            for (q, hits) in queries.iter().zip(&batched) {
                let single = e.search(q, limit);
                assert_eq!(hits.len(), single.len(), "query {q:?} limit {limit}");
                for (a, b) in hits.iter().zip(&single) {
                    assert_eq!(a.page, b.page, "query {q:?}");
                    assert_eq!(a.score.to_bits(), b.score.to_bits(), "query {q:?}");
                }
            }
        }
    }

    #[test]
    fn search_topk_matches_search_bit_for_bit() {
        let e = corpus();
        let queries = [
            "Robert Smith",
            "Alice Walker",
            "Robert",
            "Robert Robert Smith", // duplicate token: contributes twice
            "Verizon CEO",
            "Robert Jones Acme zzyzx",
            "smith",
        ];
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        for limit in [1usize, 2, 3, 8, 100] {
            for q in &queries {
                let exhaustive = e.search(q, limit);
                let fast = e.search_topk_with(q, limit, &mut scratch, &mut cache);
                assert_eq!(fast.len(), exhaustive.len(), "query {q:?} limit {limit}");
                for (a, b) in fast.iter().zip(&exhaustive) {
                    assert_eq!(a.page, b.page, "query {q:?} limit {limit}");
                    assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "query {q:?} limit {limit}"
                    );
                }
            }
        }
    }

    #[test]
    fn topk_duplicate_query_tokens_scale_the_upper_bound() {
        // Regression: the early-exit upper bound must multiply each
        // list's head contribution by its query multiplicity. With
        // "robert robert smith" the smith-bearing pages max out at
        // 2·c_robert + c_smith < the 4·robert page's 8·c_robert-ish
        // score, and an unscaled bound exits before ever seeing it.
        let texts = [
            "smith robert",
            "smith robert",
            "robert robert robert robert",
            "robert robert robert",
            "robert",
            "robert",
        ];
        let pages: Vec<WebPage> = texts
            .iter()
            .enumerate()
            .map(|(i, t)| WebPage {
                id: i,
                person_id: None,
                display_name: String::new(),
                kind: PageKind::News,
                text: (*t).into(),
            })
            .collect();
        let e = SearchEngine::build(pages);
        for limit in [1usize, 2, 3, 6] {
            let exhaustive = e.search("robert robert smith", limit);
            let fast = e.search_topk("robert robert smith", limit);
            assert_eq!(fast.len(), exhaustive.len(), "limit {limit}");
            for (a, b) in fast.iter().zip(&exhaustive) {
                assert_eq!(a.page, b.page, "limit {limit}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "limit {limit}");
            }
        }
    }

    fn assert_same_hits(got: &[SearchHit], want: &[SearchHit], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (a, b) in got.iter().zip(want) {
            assert_eq!(a.page, b.page, "{what}");
            assert_eq!(a.score.to_bits(), b.score.to_bits(), "{what}");
        }
    }

    #[test]
    fn topk_is_exact_when_many_pages_tie_at_the_boundary() {
        // Ten interleaved "robert smith" pages tie for every limit below
        // them, so the scans stop on the tie-aware exit; `tf` 2 pages sit
        // at the head of both name lists, and several queries repeat a
        // token.
        let pattern = [
            "robert smith",
            "robert",
            "robert robert smith",
            "smith",
            "robert smith",
            "john smith",
            "robert smith",
            "smith smith robert",
            "robert jones",
            "robert smith",
            "alice walker",
            "robert smith",
            "john",
        ];
        let pages: Vec<WebPage> = (0..3)
            .flat_map(|_| pattern)
            .enumerate()
            .map(|(i, t)| WebPage {
                id: i,
                person_id: None,
                display_name: format!("{t} {i}"),
                kind: PageKind::News,
                text: t.into(),
            })
            .collect();
        let e = SearchEngine::build(pages);
        let queries = [
            "robert smith",
            "smith robert",
            "robert robert smith",
            "smith smith robert",
            "robert smith smith robert",
            "john robert smith",
            "robert jones smith",
            "robert",
            "smith",
            "zzyzx robert smith",
        ];
        let sharded: Vec<ShardedSearchEngine> = (1..=5)
            .map(|shards| ShardedSearchEngine::build(&e, ShardPlan::new(shards, 3)))
            .collect();
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        for limit in 1..=12usize {
            for q in &queries {
                let exhaustive = e.search(q, limit);
                let what = format!("query {q:?} limit {limit}");
                let flat = e.search_topk_with(q, limit, &mut scratch, &mut cache);
                assert_same_hits(&flat, &exhaustive, &what);
                for engine in &sharded {
                    let what = format!("{what} shards {}", engine.shard_count());
                    let split = engine.search_topk_with(q, limit, &mut scratch, &mut cache);
                    assert_same_hits(&split, &exhaustive, &what);
                    let alive = vec![true; engine.shard_count()];
                    let surviving =
                        engine.search_topk_surviving(q, limit, &alive, &mut scratch, &mut cache);
                    assert_same_hits(&surviving, &exhaustive, &what);
                }
            }
        }
    }

    #[test]
    fn gallop_finds_pages_and_advances_past_smaller_ones() {
        let list: Vec<(u32, u32)> = (0..50u32).map(|i| (i * 3, i + 1)).collect();
        let mut from = 0;
        for page in 0..150u32 {
            let before = from;
            let found = gallop(&list, &mut from, page);
            assert_eq!(
                found,
                (page % 3 == 0).then_some(page / 3 + 1),
                "page {page}"
            );
            assert!(from >= before, "the cursor only moves forward");
            assert!(list[..from].iter().all(|&(p, _)| p < page));
        }
        assert_eq!(gallop(&list, &mut from, 1_000), None);
        assert_eq!(from, list.len());
        assert_eq!(gallop(&[], &mut 0, 7), None);
    }

    #[test]
    fn sharded_topk_matches_unsharded_bit_for_bit() {
        let e = corpus();
        let queries = [
            "Robert Smith",
            "Alice Walker",
            "Robert",
            "Robert Robert Smith",
            "Verizon CEO",
            "Robert Jones Acme zzyzx",
            "zzyzx unknown",
            "",
        ];
        for shards in 1..=5usize {
            for seed in [0u64, 7, 991] {
                let sharded = ShardedSearchEngine::build(&e, ShardPlan::new(shards, seed));
                assert_eq!(sharded.shard_count(), shards);
                let total: usize = (0..shards).map(|s| sharded.pages_in_shard(s)).sum();
                assert_eq!(total, e.len(), "every page owned exactly once");
                let mut scratch = e.scratch();
                let mut cache = e.term_cache();
                for limit in [1usize, 2, 3, 8] {
                    for q in &queries {
                        let full = e.search_topk(q, limit);
                        let split = sharded.search_topk_with(q, limit, &mut scratch, &mut cache);
                        assert_eq!(split.len(), full.len(), "query {q:?} shards {shards}");
                        for (a, b) in split.iter().zip(&full) {
                            assert_eq!(a.page, b.page, "query {q:?} shards {shards}");
                            assert_eq!(
                                a.score.to_bits(),
                                b.score.to_bits(),
                                "query {q:?} shards {shards}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn shard_assignment_follows_plan_keys() {
        let e = corpus();
        let plan = ShardPlan::new(3, 11);
        let sharded = ShardedSearchEngine::build(&e, plan);
        for (pi, page) in e.pages().iter().enumerate() {
            assert_eq!(sharded.shard_of_page(pi), plan.shard_of(&page.display_name));
        }
        // Same display name ⇒ same shard (pages 0 and 2 are both
        // "Robert Smith").
        assert_eq!(sharded.shard_of_page(0), sharded.shard_of_page(2));
    }

    #[test]
    fn surviving_search_drops_only_lost_shard_pages() {
        let e = corpus();
        let sharded = ShardedSearchEngine::build(&e, ShardPlan::new(3, 5));
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        let all_alive = vec![true; 3];
        let full =
            sharded.search_topk_surviving("Robert Smith", 10, &all_alive, &mut scratch, &mut cache);
        assert_eq!(full, e.search_topk("Robert Smith", 10));
        for lost in 0..3usize {
            let mut alive = vec![true; 3];
            alive[lost] = false;
            let degraded =
                sharded.search_topk_surviving("Robert Smith", 10, &alive, &mut scratch, &mut cache);
            // Exactly the full result minus the lost shard's pages, with
            // surviving scores untouched.
            let expected: Vec<&SearchHit> = full
                .iter()
                .filter(|h| sharded.shard_of_page(h.page) != lost)
                .collect();
            assert_eq!(degraded.len(), expected.len(), "lost shard {lost}");
            for (a, b) in degraded.iter().zip(&expected) {
                assert_eq!(a.page, b.page, "lost shard {lost}");
                assert_eq!(a.score.to_bits(), b.score.to_bits(), "lost shard {lost}");
            }
        }
    }

    #[test]
    fn scratch_survives_many_epochs() {
        let e = corpus();
        let mut scratch = e.scratch();
        let mut cache = e.term_cache();
        let reference = e.search("Robert Smith", 10);
        for _ in 0..100 {
            let hits = e.search_with("Robert Smith", 10, &mut scratch, &mut cache);
            assert_eq!(hits, reference);
            let topk = e.search_topk_with("Robert Smith", 10, &mut scratch, &mut cache);
            assert_eq!(topk, reference);
        }
    }
}
