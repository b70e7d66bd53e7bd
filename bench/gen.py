"""Seeded synthetic KB and corpus generator for the factgen benchmark.

Writes, into one directory:

- ``entities.tsv``, ``relations.tsv``, ``triples.tsv``: the KB;
- ``sentences.jsonl``: entity-linked input sentences;
- ``templates.jsonl``: hypothesis templates, one to three per relation for
  a share of the relations (the rest use factgen's default template);
- ``gold.jsonl``: per sentence, the distant-supervision triples a correct
  ``extract`` must produce (computed here by plain pair enumeration) and
  whether ingestion must drop the sentence;
- ``shares.json``: the measured properties of what was generated.

Stated distributions (the shares file reports what one seed produced):

- titles have 1, 2 or 3 words with probabilities 0.3, 0.5, 0.2; words are
  2-4 syllables, so titles stay under 40 bytes;
- 200 relations with 1-3 word labels;
- each entity has 0-5 outgoing triples; 15% of tails are year literals;
- mentions per sentence are skewed: 0 to 10, mode 2;
- 20% of date mentions use each of "Month D, YYYY", "D Month YYYY" and
  "YYYY-MM-DD", 40% a bare year;
- 3% of sentences are under ten words and are dropped at ingestion.

The same seed and sizes always give the same bytes. The module uses only
the standard library and does not import factgen.

Usage: python3 bench/gen.py --seed 1 --entities 20000 --sentences 6000 --out DIR
"""

from __future__ import annotations

import argparse
import json
import os
import random
from collections import Counter

TITLE_WORDS = (1, 2, 3)
TITLE_WORD_WEIGHTS = (0.3, 0.5, 0.2)
NUM_RELATIONS = 200
OUT_DEGREE = (0, 1, 2, 3, 4, 5)
OUT_DEGREE_WEIGHTS = (10, 25, 30, 20, 10, 5)
YEAR_TAIL_SHARE = 0.15
MENTIONS = tuple(range(11))
MENTION_WEIGHTS = (8, 22, 25, 16, 10, 7, 5, 3, 2, 1, 1)
FACT_SEEDED_SHARE = 0.6  # of sentences with 2+ mentions
SECOND_FACT_SHARE = 0.5  # of fact-seeded sentences with 3+ mentions
UNLINKED_SHARE = 0.08  # of extra mentions
DATE_SHARE = 0.08  # of extra mentions
SHORT_SENTENCE_SHARE = 0.03
MIN_WORDS = 10  # factgen's ingestion floor
TEMPLATED_RELATION_SHARE = 0.6
DATE_FORMS = ("month-day-year", "day-month-year", "iso", "year")
DATE_FORM_WEIGHTS = (0.2, 0.2, 0.2, 0.4)

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"
_MONTHS = (
    "January", "February", "March", "April", "May", "June", "July",
    "August", "September", "October", "November", "December",
)
_FILLER = (
    "the", "a", "of", "in", "was", "and", "with", "for", "on", "by", "after",
    "during", "report", "said", "local", "officials", "new", "its", "first",
    "season", "company", "city", "team", "announced", "near", "known", "later",
    "record", "group", "years", "event", "from", "which", "has", "also",
)
_REL_WORDS = (
    "located", "member", "part", "founded", "born", "capital", "owned",
    "operator", "country", "author", "genre", "league", "spouse", "child",
    "award", "place", "position", "employer", "language", "origin", "series",
    "sport", "parent", "instance", "subclass", "follows", "followed", "record",
    "label", "headquarters", "director", "producer", "cast", "publisher",
    "developer", "platform", "district", "river", "mouth", "source", "basin",
)
_REL_JOINERS = ("in", "of", "by", "at", "for", "to")
_TEMPLATE_FORMS = (
    "{head} has {rel} {tail}.",
    "The {rel} of {head} is {tail}.",
    "{head} is linked to {tail} as {rel}.",
    "{tail} is the {rel} of {head}.",
)


def _word(rng: random.Random) -> str:
    return "".join(
        rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(rng.randint(2, 4))
    )


def _titles(rng: random.Random, count: int) -> list[str]:
    seen: set[str] = set()
    titles = []
    while len(titles) < count:
        words = rng.choices(TITLE_WORDS, TITLE_WORD_WEIGHTS)[0]
        title = " ".join(_word(rng).capitalize() for _ in range(words))
        if title not in seen:
            seen.add(title)
            titles.append(title)
    return titles


def _relation_labels(rng: random.Random) -> list[str]:
    seen: set[str] = set()
    labels = []
    while len(labels) < NUM_RELATIONS:
        shape = rng.randint(1, 3)
        if shape == 1:
            label = rng.choice(_REL_WORDS)
        elif shape == 2:
            label = f"{rng.choice(_REL_WORDS)} {rng.choice(_REL_JOINERS)}"
        else:
            label = f"{rng.choice(_REL_WORDS)} {rng.choice(_REL_WORDS)} {rng.choice(_REL_JOINERS)}"
        if label not in seen:
            seen.add(label)
            labels.append(label)
    return labels


def _year(rng: random.Random) -> int:
    return rng.randint(1800, 2020) if rng.random() < 0.8 else rng.randint(1, 2100)


def _date_surface(rng: random.Random, year: int) -> tuple[str, str]:
    form = rng.choices(DATE_FORMS, DATE_FORM_WEIGHTS)[0]
    month = rng.randrange(12)
    day = rng.randint(1, 28)
    if form == "month-day-year":
        return form, f"{_MONTHS[month]} {day}, {year}"
    if form == "day-month-year":
        return form, f"{day} {_MONTHS[month]} {year}"
    if form == "iso":
        return form, f"{year}-{month + 1:02d}-{day:02d}"
    return form, str(year)


class _Sentence:
    """Accumulates text and span offsets so surfaces always match."""

    def __init__(self) -> None:
        self.text = ""
        self.spans: list[dict] = []

    def words(self, rng: random.Random, count: int) -> None:
        for _ in range(count):
            self._append(rng.choice(_FILLER))

    def mention(self, surface: str, key: str, value: str | None) -> None:
        start = self._append(surface)
        span = {"start": start, "end": start + len(surface), "surface": surface}
        if value is not None:
            span[key] = value
        self.spans.append(span)

    def _append(self, piece: str) -> int:
        if self.text:
            self.text += " "
        start = len(self.text)
        self.text += piece
        return start


def generate(seed: int, num_entities: int, num_sentences: int, out_dir: str) -> dict:
    """Write every generated file into ``out_dir``; return the shares."""
    rng = random.Random(seed)
    os.makedirs(out_dir, exist_ok=True)

    titles = _titles(rng, num_entities)
    qids = [f"Q{i + 1}" for i in range(num_entities)]
    relation_labels = _relation_labels(rng)
    pids = [f"P{i + 1}" for i in range(NUM_RELATIONS)]

    triples: list[tuple[str, str, str]] = []
    seen_triples: set[tuple[str, str, str]] = set()
    pairs: dict[tuple[str, str], set[str]] = {}
    by_head: dict[str, list[tuple[str, str, str]]] = {}
    for qid in qids:
        for _ in range(rng.choices(OUT_DEGREE, OUT_DEGREE_WEIGHTS)[0]):
            pid = rng.choice(pids)
            if rng.random() < YEAR_TAIL_SHARE:
                tail = str(_year(rng))
            else:
                tail = rng.choice(qids)
                if tail == qid:
                    continue
            triple = (qid, pid, tail)
            if triple in seen_triples:
                continue
            seen_triples.add(triple)
            triples.append(triple)
            pairs.setdefault((qid, tail), set()).add(pid)
            by_head.setdefault(qid, []).append(triple)

    with open(os.path.join(out_dir, "entities.tsv"), "w", encoding="utf-8") as handle:
        handle.writelines(f"{q}\t{t}\n" for q, t in zip(qids, titles))
    with open(os.path.join(out_dir, "relations.tsv"), "w", encoding="utf-8") as handle:
        handle.writelines(
            f"{p}\t{label}\tsynthetic relation {p}\n"
            for p, label in zip(pids, relation_labels)
        )
    with open(os.path.join(out_dir, "triples.tsv"), "w", encoding="utf-8") as handle:
        handle.writelines(f"{h}\t{p}\t{t}\n" for h, p, t in triples)

    templated = 0
    with open(os.path.join(out_dir, "templates.jsonl"), "w", encoding="utf-8") as handle:
        for pid, label in zip(pids, relation_labels):
            if rng.random() >= TEMPLATED_RELATION_SHARE:
                continue
            templated += 1
            forms = rng.sample(_TEMPLATE_FORMS, rng.randint(1, 3))
            row = {
                "pid": pid,
                "templates": [f.replace("{rel}", label) for f in forms],
            }
            handle.write(json.dumps(row, sort_keys=True) + "\n")

    title_of = dict(zip(qids, titles))
    mention_counts: Counter[int] = Counter()
    date_forms: Counter[str] = Counter()
    short = 0
    gold_ds_total = 0
    positives = 0
    with open(os.path.join(out_dir, "sentences.jsonl"), "w", encoding="utf-8") as out, open(
        os.path.join(out_dir, "gold.jsonl"), "w", encoding="utf-8"
    ) as gold_out:
        for index in range(num_sentences):
            sid = f"s{index}"
            is_short = rng.random() < SHORT_SENTENCE_SHARE
            count = 1 if is_short else rng.choices(MENTIONS, MENTION_WEIGHTS)[0]
            # Each mention: (surface, span key, span value, resolved link).
            mentions: list[tuple[str, str, str | None, str | None]] = []
            used: set[str] = set()

            def entity_mention(qid: str) -> None:
                title = title_of[qid]
                surface = title
                if " " in title and rng.random() < 0.1:
                    surface = title.split(" ")[0]
                mentions.append((surface, "link", qid, qid))
                used.add(qid)

            def year_mention(year: str) -> None:
                form, surface = _date_surface(rng, int(year))
                date_forms[form] += 1
                mentions.append((surface, "date", surface, year))

            if count >= 2 and rng.random() < FACT_SEEDED_SHARE and triples:
                head, _, tail = rng.choice(triples)
                entity_mention(head)
                tails = [tail]
                if count >= 3 and rng.random() < SECOND_FACT_SHARE:
                    tails.append(rng.choice(by_head[head])[2])
                for tail in dict.fromkeys(tails):
                    if tail in title_of:
                        if tail not in used:
                            entity_mention(tail)
                    else:
                        year_mention(tail)
            while len(mentions) < count:
                roll = rng.random()
                if roll < UNLINKED_SHARE:
                    mentions.append((_word(rng), "link", None, None))
                elif roll < UNLINKED_SHARE + DATE_SHARE:
                    year_mention(str(_year(rng)))
                else:
                    qid = rng.choice(qids)
                    if qid not in used:
                        entity_mention(qid)
            rng.shuffle(mentions)
            mention_counts[len(mentions)] += 1

            sentence = _Sentence()
            if is_short:
                sentence.words(rng, 2)
            for surface, key, value, _ in mentions:
                sentence.words(rng, rng.randint(1, 3))
                sentence.mention(surface, key, value)
            if not is_short:
                sentence.words(rng, rng.randint(4, 10))
                sentence.words(rng, max(0, MIN_WORDS - len(sentence.text.split())))
            text = sentence.text + "."
            record = {
                "id": sid,
                "text": text,
                "spans": sentence.spans,
                "url_domain": rng.choice(("example.org", "news.example", "wiki.example")),
            }
            out.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")

            dropped = len(text.split()) < MIN_WORDS
            short += dropped
            ds = []
            if not dropped:
                links = [m[3] for m in mentions if m[3] is not None]
                for i, head in enumerate(links):
                    if head not in title_of:
                        continue
                    for j, tail in enumerate(links):
                        if i != j:
                            ds.extend((head, pid, tail) for pid in pairs.get((head, tail), ()))
                ds = sorted(set(ds))
            gold_ds_total += len(ds)
            positives += bool(ds)
            gold_out.write(
                json.dumps(
                    {"id": sid, "dropped": dropped, "triples": [list(t) for t in ds]},
                    sort_keys=True,
                )
                + "\n"
            )

    title_words = Counter(len(t.split(" ")) for t in titles)
    total_dates = sum(date_forms.values())
    kept = num_sentences - short
    shares = {
        "seed": seed,
        "entities": num_entities,
        "sentences": num_sentences,
        "relations": NUM_RELATIONS,
        "triples": len(triples),
        "title_words_share": {
            str(k): round(title_words[k] / num_entities, 4) for k in TITLE_WORDS
        },
        "title_max_bytes": max(len(t.encode("utf-8")) for t in titles),
        "year_tail_share": round(
            sum(1 for _, _, t in triples if t not in title_of) / len(triples), 4
        ),
        "templated_relation_share": round(templated / NUM_RELATIONS, 4),
        "mentions_per_sentence_share": {
            str(k): round(mention_counts[k] / num_sentences, 4) for k in MENTIONS
        },
        "date_form_share": {
            form: round(date_forms[form] / total_dates, 4) if total_dates else 0.0
            for form in DATE_FORMS
        },
        "dropped_short_share": round(short / num_sentences, 4),
        "ds_positive_share": round(positives / kept, 4) if kept else 0.0,
        "ds_triples_per_positive": round(gold_ds_total / positives, 4) if positives else 0.0,
    }
    with open(os.path.join(out_dir, "shares.json"), "w", encoding="utf-8") as handle:
        json.dump(shares, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return shares


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--entities", type=int, required=True)
    parser.add_argument("--sentences", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    shares = generate(args.seed, args.entities, args.sentences, args.out)
    print(json.dumps(shares, sort_keys=True))


if __name__ == "__main__":
    main()
