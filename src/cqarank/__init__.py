"""Community question retrieval: language/translation/topic relevance
scorers, user-authority quality features, and LambdaMART fusion."""

from .corpus import (CollectionStats, Corpus, QAPair, QueryRecord, UserRecord,
                     Vocabulary, ingest_corpus, tokenize)
from .evaluation import (MetricReport, Qrels, RankedRun,
                         average_precision_at_k, evaluate_run, ndcg_at_k,
                         read_qrels, read_run, write_run)
from .index import (InvertedIndex, ScoredCandidate, bm25_score, build_index,
                    retrieve_candidates, vsm_score)
from .ltr import (LambdaMARTModel, RankingInstance, RegressionTree,
                  TrainConfig, compute_lambdas, fit_tree, read_letor, train,
                  write_letor)
from .quality import QualityFeature, authority_score, quality_feature
from .relevance import (MixtureWeights, RelevanceFeatures, features_f1_f4,
                        score_lm, score_t2lm, score_t2lm_plus, score_tlm,
                        smoothing_lambda, term_weights)
from .topics import (QueryTopicPosterior, TopicModel, infer_query_topics,
                     train_lda)
from .translation import (ParallelPair, TranslationTable,
                          corpus_log_likelihood, identity_table,
                          make_parallel_pairs, train_ibm1)

__version__ = "0.1.0"
