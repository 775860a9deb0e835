"""Pair-by-pair reference for the component-table scorers, the batched
tree routing and the flat-array IBM Model 1 EM.

The loop below scores one (query, candidate) pair at a time, term by term,
with the same float operations in the same order as the table (a topic
entry adds its products topic by topic in index order), and walks
each regression tree one row at a time. Tests require the table's scores,
feature rows and rankings, and predict_matrix, to equal it with ==.

`ibm1_em` is IBM Model 1 EM as nested dict loops over pairs, target tokens
and source tokens; tests require train_ibm1's table to equal it entry for
entry with ==.

`GibbsReference` and `fold_in` are collapsed Gibbs for LDA training and
query fold-in as one numpy call chain per token; tests require
CollapsedGibbsSampler's counts after every sweep, and infer_query_topics's
posterior, to equal them with ==.

`ReferenceIndex`, `build_index`, `bm25_scores`, `vsm_score` and
`retrieve_candidates` are the inverted index as a {term: {qa_id: tf}} dict
in corpus order, scored one posting at a time; tests require the array
index's postings, norms, BM25 and VSM scores and candidates to equal them
with ==.

`query_lambdas` and `fit_tree` are LambdaMART's gradients one query at a
time, in blocks of label pairs, and its tree fit with every feature
re-sorted at every node. Tests require the flat lambdas to match them within
1e-12, and ltr.fit_tree to pick the same split at every node on tie-free
features.
"""

import math

import numpy as np

from cqarank.corpus import doc_distribution
from cqarank.index import ScoredCandidate
from cqarank.ltr import LEAF_RIDGE, MIN_SPLIT_GAIN, RegressionTree
from cqarank.relevance import smoothing_lambda
from cqarank.topics import QueryTopicPosterior


def tree_value(tree, x):
    """The leaf value `x` reaches in `tree`, walked from the root:
    x[feature] <= threshold goes left."""
    node = 0
    while tree.feature[node] != -1:
        if x[tree.feature[node]] <= tree.threshold[node]:
            node = tree.left[node]
        else:
            node = tree.right[node]
    return tree.value[node]


def model_score(model, x):
    """LambdaMART score of one row: shrunk leaf values added in tree order."""
    total = 0.0
    for tree in model.trees:
        total += model.shrinkage * tree_value(tree, x)
    return total


def _tau(theta, num_topics):
    if isinstance(theta, QueryTopicPosterior):
        theta = theta.theta
    vec = np.asarray(theta, dtype=np.float64)
    assert vec.shape == (num_topics,)
    return vec


def score_lm(query_tokens, q_tokens, stats):
    q_dist = doc_distribution(q_tokens)
    lam = smoothing_lambda(len(q_tokens))
    total = 0.0
    for w in query_tokens:
        p = (1.0 - lam) * q_dist.get(w, 0.0) + lam * stats.prob(w)
        total += math.log(p)
    return total


def score_tlm(query_tokens, q_tokens, table, stats):
    q_dist = doc_distribution(q_tokens)
    lam = smoothing_lambda(len(q_tokens))
    total = 0.0
    for w in query_tokens:
        trans = 0.0
        for t, p_t in q_dist.items():
            trans += table.row(t).get(w, 0.0) * p_t
        p = (1.0 - lam) * trans + lam * stats.prob(w)
        total += math.log(p)
    return total


def term_components(query_tokens, qa, table, model, tau, weight_of, stats):
    """Per query-token occurrence: the four unsmoothed component
    probabilities plus the background probability."""
    q_dist = doc_distribution(qa.question_tokens)
    a_dist = doc_distribution(qa.answer_tokens) if qa.answer_tokens else {}
    phi_q = np.zeros(model.num_topics, dtype=np.float64)
    for t, p_t in q_dist.items():
        phi_q += model.phi_column(t) * p_t
    components = []
    for w in query_tokens:
        u_w = tau * model.phi_column(w)
        exact = weight_of(w) * q_dist.get(w, 0.0)
        trans = 0.0
        for t, p_t in q_dist.items():
            trans += table.row(t).get(w, 0.0) * p_t
        topic = 0.0
        for u, p in zip(u_w.tolist(), phi_q.tolist()):
            topic += u * p
        answer = weight_of(w) * a_dist.get(w, 0.0)
        components.append((exact, trans, topic, answer, stats.prob(w)))
    return components


def mixed_log_score(query_tokens, qa, mu, table, model, tau, weight_of, stats):
    lam_q = smoothing_lambda(len(qa.question_tokens))
    lam_a = smoothing_lambda(len(qa.answer_tokens))
    total = 0.0
    for exact, trans, topic, answer, pc in term_components(
            query_tokens, qa, table, model, tau, weight_of, stats):
        p = (mu.mu1 * ((1.0 - lam_q) * exact + lam_q * pc)
             + mu.mu2 * ((1.0 - lam_q) * trans + lam_q * pc)
             + mu.mu3 * ((1.0 - lam_q) * topic + lam_q * pc)
             + mu.mu4 * ((1.0 - lam_a) * answer + lam_a * pc))
        total += math.log(p)
    return total


def features_f1_f4(query_tokens, qa, table, model, theta, weights, stats):
    tau = _tau(theta, model.num_topics)
    lam_q = smoothing_lambda(len(qa.question_tokens))
    lam_a = smoothing_lambda(len(qa.answer_tokens))
    f1 = f2 = f3 = f4 = 0.0
    for exact, trans, topic, answer, pc in term_components(
            query_tokens, qa, table, model, tau, weights.__getitem__, stats):
        f1 += math.log((1.0 - lam_q) * exact + lam_q * pc)
        f2 += math.log((1.0 - lam_q) * trans + lam_q * pc)
        f3 += math.log((1.0 - lam_q) * topic + lam_q * pc)
        f4 += math.log((1.0 - lam_a) * answer + lam_a * pc)
    return (f1, f2, f3, f4)


def feature_rows(assets, prepared):
    """(doc id, F1..F4 plus the quality columns) per candidate."""
    from cqarank.quality import quality_feature

    corpus = assets.corpus
    rows = []
    for cand in prepared.candidates:
        qa = corpus.pair(cand.qa_id)
        rel = features_f1_f4(prepared.record.tokens, qa, assets.table,
                             assets.model, prepared.theta, prepared.weights,
                             corpus.stats)
        qcols = quality_feature(qa, corpus).as_columns(assets.cfg.combine_quality)
        rows.append((qa.id, rel + qcols))
    return rows


def system_ranking(system, assets, prepared):
    corpus = assets.corpus
    query_tokens = prepared.record.tokens
    mu = assets.cfg.mixture()
    scored = []
    if system == "vsm":
        index = build_index(corpus, assets.cfg.field)
    if system == "t2lm+5":
        for doc_id, features in feature_rows(assets, prepared):
            scored.append((model_score(assets.ranker, features), doc_id))
    else:
        for cand in prepared.candidates:
            qa = corpus.pair(cand.qa_id)
            if system == "vsm":
                s = vsm_score(query_tokens, qa.id, index)
            elif system == "bm25":
                s = cand.score
            elif system == "lm":
                s = score_lm(query_tokens, qa.question_tokens, corpus.stats)
            elif system == "tlm":
                s = score_tlm(query_tokens, qa.question_tokens, assets.table,
                              corpus.stats)
            elif system == "t2lm":
                s = mixed_log_score(query_tokens, qa, mu, assets.table,
                                    assets.model,
                                    np.ones(assets.model.num_topics),
                                    lambda w: 1.0, corpus.stats)
            elif system == "t2lm+":
                s = mixed_log_score(query_tokens, qa, mu, assets.table,
                                    assets.model,
                                    _tau(prepared.theta, assets.model.num_topics),
                                    prepared.weights.__getitem__, corpus.stats)
            else:
                raise ValueError(f"unknown system {system!r}")
            scored.append((s, qa.id))
    scored.sort(key=lambda item: (-item[0], item[1]))
    return [(qa_id, score) for score, qa_id in scored]


def uniform_init(pairs):
    """P(w|t) = 1/|co-occurring targets of t| before any M-step."""
    cooc = {}
    for pair in pairs:
        for t in pair.source:
            row = cooc.setdefault(t, {})
            for w in pair.target:
                row[w] = 0.0
    for t, row in cooc.items():
        p = 1.0 / len(row)
        for w in row:
            row[w] = p
    return cooc


def ibm1_em(pairs, iterations=10, prune=0.0):
    """{source t: {target w: P_tr(w|t)}} after `iterations` EM steps, pruned
    and renormalized per row when `prune` is positive. Row totals are added
    left to right, also on Python versions whose sum() compensates."""
    t_prob = uniform_init(pairs)
    for _ in range(iterations):
        counts = {}
        for pair in pairs:
            for w in pair.target:
                denom = 0.0
                for s in pair.source:
                    denom += t_prob[s][w]
                for s in pair.source:
                    counts.setdefault(s, {})
                    counts[s][w] = counts[s].get(w, 0.0) + t_prob[s][w] / denom
        for s, row in counts.items():
            total = _add_in_order(row.values())
            t_row = t_prob[s]
            for w, c in row.items():
                t_row[w] = c / total

    if prune > 0.0:
        for s in list(t_prob):
            row = {w: p for w, p in t_prob[s].items() if p >= prune}
            if not row:
                # keep the single best entry rather than orphaning a source
                best = max(t_prob[s].items(), key=lambda item: (item[1], -item[0]))
                row = {best[0]: best[1]}
            total = _add_in_order(row.values())
            t_prob[s] = {w: p / total for w, p in row.items()}

    return t_prob


def _add_in_order(values):
    total = 0.0
    for value in values:
        total += value
    return total


class GibbsReference:
    """Collapsed Gibbs state for LDA training, counted token by token and
    swept with np.cumsum and np.searchsorted per token."""

    def __init__(self, docs, num_topics, alpha, beta, vocab_size, seed):
        self.docs = [tuple(d) for d in docs]
        self.K = num_topics
        self.alpha = alpha
        self.beta = beta
        self.V = vocab_size
        self.rng = np.random.RandomState(seed)
        self.n_dk = np.zeros((len(self.docs), self.K), dtype=np.int64)
        self.n_kw = np.zeros((self.K, self.V), dtype=np.int64)
        self.n_k = np.zeros(self.K, dtype=np.int64)
        self.assignments = []
        for d, doc in enumerate(self.docs):
            z = self.rng.randint(0, self.K, size=len(doc))
            self.assignments.append(z)
            for w, k in zip(doc, z):
                self.n_dk[d, k] += 1
                self.n_kw[k, w] += 1
                self.n_k[k] += 1

    def sweep(self):
        beta_v = self.V * self.beta
        for d, doc in enumerate(self.docs):
            z_d = self.assignments[d]
            row = self.n_dk[d]
            for i, w in enumerate(doc):
                k_old = z_d[i]
                row[k_old] -= 1
                self.n_kw[k_old, w] -= 1
                self.n_k[k_old] -= 1

                p = (row + self.alpha) * (self.n_kw[:, w] + self.beta) / (self.n_k + beta_v)
                cum = np.cumsum(p)
                u = self.rng.random_sample() * cum[-1]
                k_new = int(np.searchsorted(cum, u, side="right"))
                if k_new >= self.K:
                    k_new = self.K - 1

                z_d[i] = k_new
                row[k_new] += 1
                self.n_kw[k_new, w] += 1
                self.n_k[k_new] += 1

    def read_phi(self):
        return (self.n_kw + self.beta) / (self.n_k + self.V * self.beta)[:, None]


def fold_in(model, query_tokens, burn_in=50, samples=20, seed=0):
    """Fold-in Gibbs with phi frozen, one numpy call chain per token."""
    K = model.num_topics
    tokens = [w for w in query_tokens if 0 <= w < model.vocab_size]
    if not tokens:
        return QueryTopicPosterior(theta=np.full(K, 1.0 / K), oov_fallback=True)

    rng = np.random.RandomState(seed)
    z = rng.randint(0, K, size=len(tokens))
    n_k = np.zeros(K, dtype=np.int64)
    for k in z:
        n_k[k] += 1
    cols = [model.phi[:, w] for w in tokens]

    n = len(tokens)
    acc = np.zeros(K, dtype=np.float64)
    for sweep in range(burn_in + samples):
        for i in range(n):
            n_k[z[i]] -= 1
            p = cols[i] * (n_k + model.alpha)
            cum = np.cumsum(p)
            u = rng.random_sample() * cum[-1]
            k_new = int(np.searchsorted(cum, u, side="right"))
            if k_new >= K:
                k_new = K - 1
            z[i] = k_new
            n_k[k_new] += 1
        if sweep >= burn_in:
            acc += (n_k + model.alpha) / (n + K * model.alpha)
    return QueryTopicPosterior(theta=acc / samples, oov_fallback=False)


def query_lambdas(scores, labels, truncation):
    """LambdaMART lambdas and hessians of one query, summed one block of
    label pairs at a time."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = len(scores)
    lam = np.zeros(n, dtype=np.float64)
    hess = np.zeros(n, dtype=np.float64)
    top = np.sort(labels)[::-1][:truncation]
    discounts = 1.0 / np.log2(1.0 + np.arange(1, len(top) + 1))
    idcg = float((((2.0 ** top) - 1.0) * discounts).sum())
    if idcg == 0.0:
        return lam, hess

    pos = np.empty(n, dtype=np.int64)
    pos[np.argsort(-scores, kind="stable")] = np.arange(1, n + 1)
    disc = np.where(pos <= truncation, 1.0 / np.log2(1.0 + pos), 0.0)
    gains = (2.0 ** labels) - 1.0

    values = np.unique(labels)[::-1]
    for ai, a in enumerate(values):
        idx_a = np.flatnonzero(labels == a)
        for b in values[ai + 1:]:
            idx_b = np.flatnonzero(labels == b)
            d = scores[idx_a][:, None] - scores[idx_b][None, :]
            e = np.exp(-np.abs(d))
            rho = np.where(d >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
            delta = np.abs((gains[idx_a][:, None] - gains[idx_b][None, :])
                           * (disc[idx_a][:, None] - disc[idx_b][None, :])) / idcg
            step = delta * rho
            curve = step * (1.0 - rho)
            lam[idx_a] += step.sum(axis=1)
            lam[idx_b] -= step.sum(axis=0)
            hess[idx_a] += curve.sum(axis=1)
            hess[idx_b] += curve.sum(axis=0)
    return lam, hess


def _best_split(X, g, idx, min_leaf):
    """Best (gain, feature, threshold, left_idx, right_idx) for one node,
    each feature's node rows sorted anew; None when no split satisfies the
    min-leaf constraint with positive gain."""
    n = len(idx)
    if n < 2 * min_leaf:
        return None
    g_node = g[idx]
    total = g_node.sum()
    parent = total * total / n
    best = None
    for feat in range(X.shape[1]):
        vals = X[idx, feat]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        csum = np.cumsum(g_node[order])
        n_left = np.arange(1, n)
        valid = (sv[:-1] < sv[1:]) & (n_left >= min_leaf) & ((n - n_left) >= min_leaf)
        if not valid.any():
            continue
        left_sum = csum[:-1]
        right_sum = total - left_sum
        gain = np.where(
            valid,
            left_sum ** 2 / n_left + right_sum ** 2 / (n - n_left) - parent,
            -np.inf)
        i = int(np.argmax(gain))  # first max: lowest threshold on ties
        if gain[i] <= MIN_SPLIT_GAIN:
            continue
        if best is None or gain[i] > best[0]:
            thr = float((sv[i] + sv[i + 1]) / 2.0)
            if thr >= sv[i + 1]:
                thr = float(sv[i])
            best = (float(gain[i]), feat, thr,
                    idx[order[:i + 1]], idx[order[i + 1:]])
    return best


def fit_tree(X, g, h, max_leaves, min_leaf):
    """Best-first regression tree as ltr.fit_tree grows it: the candidate
    split of highest gain expands first, creation order breaking ties."""
    X = np.asarray(X, dtype=np.float64)
    tree = RegressionTree()

    def leaf_value(idx):
        return float(g[idx].sum() / (h[idx].sum() + LEAF_RIDGE))

    root_idx = np.arange(X.shape[0])
    tree._add_leaf(leaf_value(root_idx))
    if X.shape[0] < min_leaf:
        return tree
    candidates = []
    seq = 0
    split = _best_split(X, g, root_idx, min_leaf)
    if split is not None:
        candidates.append((split[0], seq, 0, split))
    leaves = 1
    while candidates and leaves < max_leaves:
        candidates.sort(key=lambda c: (-c[0], c[1]))
        _, _, node, (_, feat, thr, left_idx, right_idx) = candidates.pop(0)
        left = tree._add_leaf(leaf_value(left_idx))
        right = tree._add_leaf(leaf_value(right_idx))
        tree._make_split(node, feat, thr, left, right)
        leaves += 1
        for child, child_idx in ((left, left_idx), (right, right_idx)):
            child_split = _best_split(X, g, child_idx, min_leaf)
            if child_split is not None:
                seq += 1
                candidates.append((child_split[0], seq, child, child_split))
    return tree


class ReferenceIndex:
    """Term -> {qa_id: term frequency} in corpus order, with per-pair
    lengths and tf-idf norms."""

    def __init__(self):
        self.postings = {}
        self.doc_len = {}
        self.doc_norm = {}
        self.doc_count = 0
        self.avgdl = 0.0

    def df(self, term):
        return len(self.postings.get(term, ()))

    def tf(self, term, qa_id):
        return self.postings.get(term, {}).get(qa_id, 0)

    def vsm_idf(self, term):
        df = self.df(term)
        return math.log(self.doc_count / df) if df else 0.0

    def bm25_idf(self, term):
        df = self.df(term)
        return math.log((self.doc_count - df + 0.5) / (df + 0.5) + 1.0)


def build_index(corpus, field="question_and_answer"):
    index = ReferenceIndex()
    docs = []
    total_len = 0
    for pair in corpus.pairs:
        tokens = pair.question_tokens
        if field == "question_and_answer":
            tokens = tokens + pair.answer_tokens
        docs.append((pair.id, tokens))
        index.doc_len[pair.id] = len(tokens)
        total_len += len(tokens)
        for term in tokens:
            row = index.postings.setdefault(term, {})
            row[pair.id] = row.get(pair.id, 0) + 1
    index.doc_count = len(corpus.pairs)
    index.avgdl = total_len / index.doc_count
    for qa_id, tokens in docs:
        acc = 0.0
        for term in dict.fromkeys(tokens):
            w = index.tf(term, qa_id) * index.vsm_idf(term)
            acc += w * w
        index.doc_norm[qa_id] = math.sqrt(acc)
    return index


def bm25_scores(query_tokens, index, k1=1.2, b=0.75):
    """{qa_id: BM25} of the pairs sharing a term with the query. A pair adds
    the query's distinct terms in the order they first occur in it, each
    term's contribution times its count in the query."""
    scores = {}
    for term in dict.fromkeys(query_tokens):
        entries = index.postings.get(term)
        if not entries:
            continue
        q_tf = query_tokens.count(term)
        idf = index.bm25_idf(term)
        for qa_id, tf in entries.items():
            dl = index.doc_len[qa_id]
            denom = tf + k1 * (1.0 - b + b * dl / index.avgdl)
            contrib = idf * tf * (k1 + 1.0) / denom
            scores[qa_id] = scores.get(qa_id, 0.0) + q_tf * contrib
    return scores


def vsm_score(query_tokens, qa_id, index):
    """Cosine of raw-tf x idf vectors, idf = ln(N/df). The dot product and
    the query's squared norm add the query's distinct terms in the order
    they first occur in it; 0 when either norm is 0 or no pair has the id."""
    dot = 0.0
    q_norm_sq = 0.0
    for term in dict.fromkeys(query_tokens):
        idf = index.vsm_idf(term)
        qw = query_tokens.count(term) * idf
        q_norm_sq += qw * qw
        tf = index.tf(term, qa_id)
        if tf:
            dot += qw * tf * idf
    d_norm = index.doc_norm.get(qa_id, 0.0)
    if q_norm_sq == 0.0 or d_norm == 0.0:
        return 0.0
    return dot / (math.sqrt(q_norm_sq) * d_norm)


def retrieve_candidates(query_tokens, index, k, k1=1.2, b=0.75):
    """Top-k pairs by BM25, ties broken by ascending qa_id; pairs sharing no
    term with the query are left out."""
    ranked = sorted(bm25_scores(query_tokens, index, k1, b).items(),
                    key=lambda item: (-item[1], item[0]))[:k]
    return [ScoredCandidate(qa_id=d, score=s) for d, s in ranked]
