//! The independent answer check: a monolithic index over the same
//! corpus, scored with the same corpus-wide statistics, plus a
//! brute-force BM25 over the raw term vectors that guards the oracle.

use dwr_partition::parted::Corpus;
use dwr_partition::repart::CorpusStats;
use dwr_query::broker::GlobalHit;
use dwr_text::index::{build_index, InvertedIndex};
use dwr_text::score::Bm25;
use dwr_text::search::{search_or_with, EvalStats, EvalStrategy};
use dwr_text::TermId;
use std::sync::Arc;

pub struct Oracle {
    corpus: Arc<Corpus>,
    index: InvertedIndex,
    stats: CorpusStats,
    bm25: Bm25,
}

/// First-occurrence deduplication: the term order every evaluator folds
/// a document's score in.
fn canonical(terms: &[TermId]) -> Vec<TermId> {
    let mut out: Vec<TermId> = Vec::with_capacity(terms.len());
    for &t in terms {
        if !out.contains(&t) {
            out.push(t);
        }
    }
    out
}

impl Oracle {
    pub fn build(corpus: Arc<Corpus>) -> Self {
        let index = build_index(&corpus);
        let stats = CorpusStats::from_corpus(&corpus);
        Oracle { corpus, index, stats, bm25: Bm25::default() }
    }

    /// The monolithic index's top-k.
    pub fn top_k(&self, terms: &[TermId], k: usize) -> Vec<GlobalHit> {
        let mut ev = EvalStats::default();
        search_or_with(
            EvalStrategy::MaxScore,
            &self.index,
            terms,
            k,
            &self.bm25,
            &self.stats,
            &mut ev,
        )
        .into_iter()
        .map(|h| GlobalHit { doc: h.doc.0, score: h.score })
        .collect()
    }

    /// One document's score for `terms`, from its raw term vector: the
    /// per-document f64 fold in canonical term order, rounded once.
    fn score_canon(&self, doc: &[(TermId, u32)], canon: &[TermId]) -> Option<f32> {
        let len: u64 = doc.iter().map(|&(_, tf)| u64::from(tf)).sum();
        let mut score = 0.0f64;
        let mut matched = false;
        for &t in canon {
            if let Some(&(_, tf)) = doc.iter().find(|&&(d, _)| d == t) {
                score += self.bm25.score(&self.stats, t, tf, len as u32);
                matched = true;
            }
        }
        matched.then_some(score as f32)
    }

    /// Brute-force top-k: score every document of the corpus.
    pub fn brute_top_k(&self, terms: &[TermId], k: usize) -> Vec<GlobalHit> {
        let canon = canonical(terms);
        let mut all: Vec<GlobalHit> = self
            .corpus
            .iter()
            .enumerate()
            .filter_map(|(d, doc)| {
                self.score_canon(doc, &canon).map(|score| GlobalHit { doc: d as u32, score })
            })
            .collect();
        all.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.doc.cmp(&b.doc)));
        all.truncate(k);
        all
    }

    /// Properties every answer must have, whatever its coverage: at most
    /// `k` hits, best first (ties by ascending doc), no document twice,
    /// and each score equal to the oracle's score for that document.
    pub fn check_props(
        &self,
        hits: &[GlobalHit],
        terms: &[TermId],
        k: usize,
    ) -> Result<(), String> {
        if hits.len() > k {
            return Err(format!("{} hits for k={k}", hits.len()));
        }
        for w in hits.windows(2) {
            let ordered =
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].doc < w[1].doc);
            if !ordered {
                return Err(format!("hits out of order or duplicated: {:?} then {:?}", w[0], w[1]));
            }
        }
        let mut docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        docs.sort_unstable();
        if docs.windows(2).any(|w| w[0] == w[1]) {
            return Err("a document appears twice".into());
        }
        let canon = canonical(terms);
        for h in hits {
            let Some(doc) = self.corpus.get(h.doc as usize) else {
                return Err(format!("doc {} is not in the corpus", h.doc));
            };
            let expect = self.score_canon(doc, &canon);
            if expect.map(f32::to_bits) != Some(h.score.to_bits()) {
                return Err(format!(
                    "doc {} scored {} where the oracle has {:?}",
                    h.doc, h.score, expect
                ));
            }
        }
        Ok(())
    }
}
