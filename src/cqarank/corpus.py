"""Q&A archive ingestion: tokenization, vocabulary interning, collection statistics.

Token sequences are stored as dense term-ids. The pooled question+answer
token counts form the single background model used by every smoothing
formula downstream.
"""

import hashlib
import json
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

# Criterion 1: each translation table or topic model row sums to 1 within this.
ROW_SUM_TOLERANCE = 1e-9


@contextmanager
def text_lines(path, whole=False):
    """The stripped non-blank lines of a text file. A ValueError raised
    inside the block is raised again as `<path>: line N: <message>`, N being
    the last line read, or one past the last line once all are read. With
    `whole`, for the files the program writes, a last line without its
    newline raises before it is yielded: the file was cut short inside it."""
    line_no = 0

    def lines():
        nonlocal line_no
        with open(path, encoding="utf-8") as f:
            for line_no, line in enumerate(f, start=1):
                if whole and not line.endswith("\n"):
                    raise ValueError("last line has no newline; the file is cut short")
                line = line.strip()
                if line:
                    yield line
        line_no += 1

    try:
        yield lines()
    except UnicodeDecodeError:  # raised for a whole chunk, not at its line
        raise _not_utf8(path) from None
    except ValueError as exc:
        raise ValueError(f"{path}: line {line_no}: {exc}") from None


def _not_utf8(path) -> ValueError:
    """The error for the file at `path`, whose bytes are not UTF-8: it names
    the line of the first byte that is not."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        return ValueError(f"{path}: line {line}: not UTF-8: {exc.reason} at byte {exc.start}")
    return ValueError(f"{path}: not UTF-8")  # the file changed while it was read


def read_text(path) -> str:
    """The text of the UTF-8 file at `path`, read in text mode; ValueError
    naming the path and line when its bytes are not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def strict_numeric(text: str) -> str:
    """`text`, one number or a line of them, unchanged; ValueError if it
    holds a `_` or a non-ASCII character. int and float accept `_` between
    digits and non-ASCII digits, as in `1_0` or `\u0663.0e-1`, which repr
    never writes; every reader converts only what passed here."""
    if "_" in text or not text.isascii():
        raise ValueError(f"a number in {text!r} holds '_' or a non-ASCII character")
    return text


def image_path(path) -> Path:
    """Where the binary image of the model text file at `path` lives."""
    return Path(f"{path}.npy")


def file_sha256(path) -> bytes:
    """The sha256 of the bytes of the file at `path`, read in chunks."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            digest.update(chunk)
    return digest.digest()


def save_image(path, arrays) -> None:
    """Write the binary image of the text file at `path` beside it: the
    sha256 of the text's bytes as uint8[32], then each array, one np.save
    each. Sequential np.save calls give the same bytes on every run, which
    np.savez, stamping its zip entries with the time, does not."""
    digest = np.frombuffer(file_sha256(path), dtype=np.uint8)
    with open(image_path(path), "wb") as f:
        for array in (digest, *arrays):
            np.save(f, array, allow_pickle=False)


_HEADER_READERS = {(1, 0): np.lib.format.read_array_header_1_0,
                   (2, 0): np.lib.format.read_array_header_2_0}


def _read_array(f, size: int, dtype, ndim: int) -> np.ndarray:
    """The next array in the open image `f` of `size` bytes, which its
    header must declare of `dtype` and `ndim` in C order, with no more data
    than the file has left, before any of it is read."""
    version = np.lib.format.read_magic(f)
    if version not in _HEADER_READERS:
        raise ValueError(f"unsupported array format version {version}")
    shape, fortran_order, found = _HEADER_READERS[version](f)
    if found != np.dtype(dtype) or len(shape) != ndim or fortran_order:
        raise ValueError(f"expected a {ndim}-d {np.dtype(dtype)} array in C order, "
                         f"found {found} of shape {shape}"
                         + (" in Fortran order" if fortran_order else ""))
    count = math.prod(shape)
    if count * found.itemsize > size - f.tell():
        raise ValueError(f"an array of shape {shape} needs {count * found.itemsize} "
                         f"bytes, and {size - f.tell()} are left")
    return np.fromfile(f, dtype=found, count=count).reshape(shape)


def load_image(path, kinds) -> list[np.ndarray]:
    """The arrays of the image beside the text file at `path`, one per
    (dtype, ndim) in `kinds`. ValueError naming the image unless it reads
    cleanly: it is missing or cut short, holds pickled data or anything
    after its last array, an array of another dtype or ndim or not in C
    order, or its digest is not the sha256 of the text's bytes now, as
    after the text was edited or when the text is missing."""
    image = image_path(path)
    try:
        with open(image, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            digest, *arrays = [_read_array(f, size, dtype, ndim)
                               for dtype, ndim in ((np.uint8, 1), *kinds)]
            if f.read(1):
                raise ValueError("data after the last array")
    except OSError as exc:
        raise ValueError(f"{image}: cannot read the model image: {exc.strerror}") from None
    except ValueError as exc:
        raise ValueError(f"{image}: {exc}") from None
    try:
        current = file_sha256(path)
    except OSError as exc:
        raise ValueError(f"{image}: cannot read the text {path}: {exc.strerror}") from None
    if digest.tobytes() != current:
        raise ValueError(f"{image}: the digest is not the sha256 of {path}; "
                         "the text changed after the image was written")
    return arrays


@dataclass(frozen=True)
class QAPair:
    """One archived question/answer pair with asker and answerer identities."""

    id: str
    question_tokens: tuple[int, ...]
    answer_tokens: tuple[int, ...]
    asker_id: str
    answerer_id: str


@dataclass(frozen=True)
class QueryRecord:
    id: str
    tokens: tuple[int, ...]


@dataclass(frozen=True)
class UserRecord:
    user_id: str
    best_answer_count: int


class Vocabulary:
    """Bijective token-string <-> term-id map with dense ids in [0, V).

    Interning grows the map; ids already handed out never change, so models
    trained against an earlier snapshot stay valid when later queries add
    out-of-collection words.
    """

    def __init__(self) -> None:
        self._id_of: dict[str, int] = {}
        self._tokens: list[str] = []

    def __len__(self) -> int:
        return len(self._tokens)

    def intern(self, token: str) -> int:
        tid = self._id_of.get(token)
        if tid is None:
            tid = len(self._tokens)
            self._id_of[token] = tid
            self._tokens.append(token)
        return tid

    def intern_all(self, tokens) -> tuple[int, ...]:
        return tuple(self.intern(t) for t in tokens)

    def tokens(self) -> list[str]:
        return list(self._tokens)


class CollectionStats:
    """Per-term corpus frequencies pooled over questions and answers.

    P_ml(w|C) is count/N for seen terms. Unseen terms get the floor
    1/(10*N) so smoothed per-term probabilities stay strictly positive for
    out-of-collection query words.
    """

    def __init__(self, frequencies: dict[int, int]) -> None:
        self.frequencies = dict(frequencies)
        self.total_tokens = sum(self.frequencies.values())

    def prob(self, term_id: int) -> float:
        count = self.frequencies.get(term_id, 0)
        if count == 0:
            return 1.0 / (10.0 * self.total_tokens)
        return count / self.total_tokens


def tokenize(text: str, mode: str = "whitespace") -> list[str]:
    """Split text into token strings.

    whitespace mode splits on runs of Unicode whitespace and lowercases;
    pretokenized mode splits on single spaces and keeps tokens verbatim
    (for text segmented by an external tool).
    """
    if mode == "whitespace":
        return text.lower().split()
    if mode == "pretokenized":
        return [t for t in text.split(" ") if t]
    raise ValueError(f"unknown tokenize mode: {mode!r}")


def doc_distribution(tokens) -> dict[int, float]:
    """P_ml(t|doc) for every distinct term, in first-occurrence order."""
    n = len(tokens)
    counts = Counter(tokens)
    return {t: c / n for t, c in counts.items()}


@dataclass
class Corpus:
    pairs: list[QAPair]
    vocabulary: Vocabulary
    stats: CollectionStats
    users: dict[str, UserRecord]

    def __post_init__(self) -> None:
        self._by_id = {p.id: p for p in self.pairs}

    def pair(self, qa_id: str) -> QAPair:
        return self._by_id[qa_id]

    def best_answer_count(self, user_id: str) -> int:
        rec = self.users.get(user_id)
        return rec.best_answer_count if rec is not None else 0


def _json_record(line: str) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(rec, dict):
        raise ValueError("expected a JSON object")
    return rec


def _record_tokens(rec: dict, tokens_key: str, text_key: str, mode: str) -> list[str]:
    """The record's `tokens_key` array as strings when it has one, else its
    `text_key` string tokenized."""
    if tokens_key in rec:
        tokens = rec[tokens_key]
        if not isinstance(tokens, list) or not all(
                isinstance(t, (str, int, float)) and not isinstance(t, bool)
                for t in tokens):
            raise ValueError(f"{tokens_key!r} must be an array of strings or numbers")
        return [str(t) for t in tokens]
    text = rec[text_key]
    if not isinstance(text, str):
        raise ValueError(f"{text_key!r} must be a string")
    return tokenize(text, mode)


def _record_id(rec: dict, what: str, forbidden: str = "") -> str:
    """The record's id as a string. Run files and qrels separate fields by
    whitespace, and a LETOR row ends at its first '#', so an id that is empty
    or holds whitespace or a character of `forbidden` could not be read back
    from the files it is written to."""
    rid = str(rec["id"])
    if not rid or any(c.isspace() or c in forbidden for c in rid):
        raise ValueError(f"{what} id {rid!r} is empty or holds whitespace"
                         + (f" or one of {forbidden!r}" if forbidden else ""))
    return rid


def _pair_from_record(rec: dict, vocab: Vocabulary, mode: str,
                      stopwords: frozenset[str] | None) -> QAPair:
    for key in ("id", "question", "answer", "asker", "answerer"):
        if key not in rec:
            raise ValueError(f"missing field {key!r}")

    q_tokens = _record_tokens(rec, "question_tokens", "question", mode)
    a_tokens = _record_tokens(rec, "answer_tokens", "answer", mode)

    if stopwords:
        q_tokens = [t for t in q_tokens if t not in stopwords]
        a_tokens = [t for t in a_tokens if t not in stopwords]

    if not q_tokens:
        raise ValueError(f"pair {rec['id']!r} has an empty question")

    return QAPair(
        id=_record_id(rec, "pair"),
        question_tokens=vocab.intern_all(q_tokens),
        answer_tokens=vocab.intern_all(a_tokens),
        asker_id=str(rec["asker"]),
        answerer_id=str(rec["answerer"]),
    )


def _read_users(users_path) -> dict[str, int]:
    counts: dict[str, int] = {}
    with text_lines(users_path) as lines:
        for line in lines:
            rec = _json_record(line)
            if "user" not in rec or "best_answers" not in rec:
                raise ValueError("users record needs 'user' and 'best_answers'")
            user = str(rec["user"])
            best = rec["best_answers"]
            if not isinstance(best, int) or best < 0:
                raise ValueError("best_answers must be a non-negative integer")
            if user in counts:
                raise ValueError(f"duplicate user {user!r}")
            counts[user] = best
    return counts


def ingest_corpus(qa_path, users_path=None, mode: str = "whitespace",
                  stopwords=None) -> Corpus:
    """Read the Q&A JSONL (and optional users JSONL) into an immutable Corpus.

    Collection statistics pool question and answer tokens. Users referenced
    by pairs but absent from the users file get best_answer_count 0.
    """
    stopset = frozenset(stopwords) if stopwords else None
    vocab = Vocabulary()
    pairs: list[QAPair] = []
    seen_ids: set[str] = set()

    with text_lines(qa_path) as lines:
        for line in lines:
            pair = _pair_from_record(_json_record(line), vocab, mode, stopset)
            if pair.id in seen_ids:
                raise ValueError(f"duplicate pair id {pair.id!r}")
            seen_ids.add(pair.id)
            pairs.append(pair)

    if not pairs:
        raise ValueError(f"{qa_path}: empty corpus")

    freq: Counter[int] = Counter()
    for pair in pairs:
        freq.update(pair.question_tokens)
        freq.update(pair.answer_tokens)
    stats = CollectionStats(dict(freq))

    user_counts = _read_users(users_path) if users_path is not None else {}
    users = {u: UserRecord(u, c) for u, c in user_counts.items()}
    for pair in pairs:
        for uid in (pair.asker_id, pair.answerer_id):
            if uid not in users:
                users[uid] = UserRecord(uid, 0)

    return Corpus(pairs=pairs, vocabulary=vocab, stats=stats, users=users)


def load_queries(path, vocabulary: Vocabulary, mode: str = "whitespace") -> list[QueryRecord]:
    """Read a queries JSONL ({"id", "text"} or {"id", "tokens"}); interning
    may grow the vocabulary with out-of-collection words."""
    queries: list[QueryRecord] = []
    seen: set[str] = set()
    with text_lines(path) as lines:
        for line in lines:
            rec = _json_record(line)
            if "id" not in rec:
                raise ValueError("query record needs 'id'")
            if "tokens" not in rec and "text" not in rec:
                raise ValueError("query record needs 'text' or 'tokens'")
            tokens = _record_tokens(rec, "tokens", "text", mode)
            if not tokens:
                raise ValueError(f"query {rec['id']!r} is empty")
            qid = _record_id(rec, "query", "#")
            if qid in seen:
                raise ValueError(f"duplicate query id {qid!r}")
            seen.add(qid)
            queries.append(QueryRecord(id=qid, tokens=vocabulary.intern_all(tokens)))
    return queries


def save_corpus(corpus: Corpus, path) -> None:
    """Serialize a corpus (pairs, vocabulary, stats, users) to one JSON file."""
    freq = [corpus.stats.frequencies.get(i, 0) for i in range(len(corpus.vocabulary))]
    payload = {
        "format": "cqarank-corpus-v1",
        "vocabulary": corpus.vocabulary.tokens(),
        "frequencies": freq,
        "pairs": [
            {
                "id": p.id,
                "q": list(p.question_tokens),
                "a": list(p.answer_tokens),
                "asker": p.asker_id,
                "answerer": p.answerer_id,
            }
            for p in corpus.pairs
        ],
        "users": [[u.user_id, u.best_answer_count] for u in corpus.users.values()],
    }
    with open(path, "w", encoding="utf-8") as f:
        # json.dumps encodes in C; json.dump streams from the Python encoder
        f.write(json.dumps(payload, separators=(",", ":"), sort_keys=True))
        f.write("\n")


def _list_of(value, kind) -> bool:
    """Whether `value` is a list of exactly `kind` (an int list holds no bools)."""
    return type(value) is list and set(map(type, value)) <= {kind}


def load_corpus(path) -> Corpus:
    """Read a corpus written by save_corpus. A file that is not JSON, lacks
    a key or breaks a rule of the format raises ValueError naming the path.
    The rules: distinct string tokens; one int frequency per token, its
    count in the pairs' questions and answers; token ids that are ints in
    [0, V); string pair and user ids; non-negative int best-answer counts;
    no repeated pair or user."""
    text = read_text(path)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != "cqarank-corpus-v1":
        raise ValueError(f"{path}: not a cqarank corpus file")
    try:
        tokens, freq = payload["vocabulary"], payload["frequencies"]
        if not _list_of(tokens, str):
            raise ValueError("the vocabulary must be a list of strings")
        vocab = Vocabulary()
        vocab.intern_all(tokens)
        if len(vocab) != len(tokens):
            raise ValueError("the vocabulary repeats a token")
        if not (_list_of(freq, int) and len(freq) == len(tokens)
                and min(freq, default=0) >= 0):
            raise ValueError(f"frequencies must be {len(tokens)} non-negative integers")
        stats = CollectionStats({i: c for i, c in enumerate(freq) if c > 0})
        pairs = []
        for rec in payload["pairs"]:
            if not (type(rec["id"]) is type(rec["asker"]) is type(rec["answerer"]) is str
                    and type(rec["q"]) is type(rec["a"]) is list):
                raise ValueError("a pair needs string ids and token id lists")
            pairs.append(QAPair(id=rec["id"], question_tokens=tuple(rec["q"]),
                                answer_tokens=tuple(rec["a"]), asker_id=rec["asker"],
                                answerer_id=rec["answerer"]))
        size = len(vocab)
        ids = list(chain.from_iterable(chain(pair.question_tokens, pair.answer_tokens)
                                       for pair in pairs))
        for t in ids:
            if type(t) is not int or not 0 <= t < size:
                raise ValueError(f"token id {t!r} is not an integer in [0, {size})")
        if np.bincount(np.array(ids, dtype=np.int64), minlength=size).tolist() != freq:
            raise ValueError("frequencies differ from the token counts of the pairs")
        if len({p.id for p in pairs}) != len(pairs):
            raise ValueError("repeated pair id")
        users = {}
        for uid, count in payload["users"]:
            if type(uid) is not str or type(count) is not int or count < 0:
                raise ValueError("a user needs a string id and a non-negative count")
            if uid in users:
                raise ValueError(f"repeated user {uid!r}")
            users[uid] = UserRecord(uid, count)
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed corpus: {exc}") from None
    return Corpus(pairs=pairs, vocabulary=vocab, stats=stats, users=users)
