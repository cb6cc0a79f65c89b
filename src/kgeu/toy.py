"""Synthetic bilingual dataset generator.

Builds two parallel fact sets over mirrored entity and relation names,
links the mirrors with a translation property (at both the property and
the entity level), and withholds a fraction of the mirrored facts as the
test set while keeping their originals in training. Completing a held-out
mirror is only possible by exploiting the translation structure, which is
exactly what a unified vocabulary gives the models.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpecError
from .ingest import RawTriple

TRANSLATION = "x:translation"


@dataclass(frozen=True)
class ToySpec:
    n_facts: int = 120
    n_entities: int = 40
    n_relations: int = 4
    translation_fraction: float = 1.0
    holdout_fraction: float = 0.5
    entity_links: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_entities < 2:
            raise InvalidSpecError("need at least 2 entities")
        if self.n_relations < 1:
            raise InvalidSpecError("need at least 1 relation")
        if self.n_facts < 1:
            raise InvalidSpecError("need at least 1 fact")
        if self.n_facts > self.n_entities * (self.n_entities - 1) * self.n_relations:
            raise InvalidSpecError("n_facts exceeds the number of distinct facts")
        for name in ("translation_fraction", "holdout_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidSpecError(f"{name} must be within [0, 1]")


def generate_toy(spec: ToySpec, rng: np.random.Generator | None = None) -> tuple[list[RawTriple], list[RawTriple]]:
    """Generate (train, test) triple lists; deterministic per spec.seed."""
    if rng is None:
        rng = np.random.default_rng(spec.seed)

    ent = [f"l1:e{i}" for i in range(spec.n_entities)]
    ent2 = [f"l2:e{i}" for i in range(spec.n_entities)]
    rel = [f"l1:r{k}" for k in range(spec.n_relations)]
    rel2 = [f"l2:r{k}" for k in range(spec.n_relations)]

    facts: list[tuple[int, int, int]] = []
    seen = set()
    while len(facts) < spec.n_facts:
        s = int(rng.integers(spec.n_entities))
        o = int(rng.integers(spec.n_entities))
        k = int(rng.integers(spec.n_relations))
        if s == o or (s, k, o) in seen:
            continue
        seen.add((s, k, o))
        facts.append((s, k, o))

    n_test = int(round(spec.holdout_fraction * spec.n_facts))
    held_out = set(rng.permutation(spec.n_facts)[:n_test].tolist())

    n_linked = int(round(spec.translation_fraction * spec.n_relations))
    linked = sorted(rng.choice(spec.n_relations, size=n_linked, replace=False).tolist())

    train = [RawTriple(ent[s], rel[k], ent[o]) for s, k, o in facts]
    test: list[RawTriple] = []
    for i, (s, k, o) in enumerate(facts):
        mirror = RawTriple(ent2[s], rel2[k], ent2[o])
        (test if i in held_out else train).append(mirror)
    train.extend(RawTriple(rel[k], TRANSLATION, rel2[k]) for k in linked)
    if spec.entity_links:
        used = sorted({i for s, _, o in facts for i in (s, o)})
        train.extend(RawTriple(ent[i], TRANSLATION, ent2[i]) for i in used)

    # Coverage repair: a held-out mirror whose relation (or entity) never
    # made it into training cannot be ranked; move such facts back.
    covered = {term for t in train for term in (t.subject, t.predicate, t.object)}
    kept_test = []
    for t in test:
        if {t.subject, t.predicate, t.object} <= covered:
            kept_test.append(t)
        else:
            train.append(t)
            covered.update((t.subject, t.predicate, t.object))
    return train, kept_test
