"""The eager three-index RDF graph that :class:`repro.rdf.graph.Graph`
replaced.

Every ``add`` and ``remove`` here maintains SPO, POS and OSP at once;
the shipped graph keeps only SPO until a predicate- or object-led query
first needs the other two. This copy lives only here, as the oracle that
``tests/rdf/test_graph_properties.py`` compares the shipped graph
against.
"""

from __future__ import annotations

from typing import Dict, Iterator, Set

from repro.rdf.terms import IRI, Literal, Term
from repro.rdf.triples import Triple

_Index = Dict[Term, Dict[Term, Set[Term]]]


def _index_add(index: _Index, a: Term, b: Term, c: Term) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


def _index_remove(index: _Index, a: Term, b: Term, c: Term) -> None:
    level1 = index.get(a)
    if level1 is None:
        return
    level2 = level1.get(b)
    if level2 is None:
        return
    level2.discard(c)
    if not level2:
        del level1[b]
    if not level1:
        del index[a]


class EagerGraph:
    """A set of RDF triples that keeps all three indexes on every write."""

    __slots__ = ("_spo", "_pos", "_osp", "_size")

    def __init__(self) -> None:
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def add(self, triple: Triple) -> bool:
        """Add *triple*; return ``True`` if it was not already present."""
        s, p, o = triple
        existing = self._spo.get(s, {}).get(p)
        if existing is not None and o in existing:
            return False
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._size += 1
        return True

    def remove(self, triple: Triple) -> bool:
        """Remove *triple*; return ``True`` if it was present."""
        s, p, o = triple
        existing = self._spo.get(s, {}).get(p)
        if existing is None or o not in existing:
            return False
        _index_remove(self._spo, s, p, o)
        _index_remove(self._pos, p, o, s)
        _index_remove(self._osp, o, s, p)
        self._size -= 1
        return True

    def remove_matching(self, s: Term | None, p: IRI | None, o: Term | None) -> int:
        """Remove all triples matching the pattern; return the count."""
        doomed = list(self.triples(s, p, o))
        for triple in doomed:
            self.remove(triple)
        return len(doomed)

    # ------------------------------------------------------------------
    # pattern matching
    # ------------------------------------------------------------------
    def triples(
        self,
        s: Term | None = None,
        p: IRI | None = None,
        o: Term | None = None,
    ) -> Iterator[Triple]:
        """Yield triples matching the (s, p, o) pattern; ``None`` = wildcard."""
        if s is not None:
            po = self._spo.get(s)
            if po is None:
                return
            if p is not None:
                objs = po.get(p)
                if objs is None:
                    return
                if o is not None:
                    if o in objs:
                        yield Triple(s, p, o)
                    return
                for obj in objs:
                    yield Triple(s, p, obj)
                return
            for pred, objs in po.items():
                if o is not None:
                    if o in objs:
                        yield Triple(s, pred, o)
                    continue
                for obj in objs:
                    yield Triple(s, pred, obj)
            return
        if p is not None:
            os_ = self._pos.get(p)
            if os_ is None:
                return
            if o is not None:
                subs = os_.get(o)
                if subs is None:
                    return
                for sub in subs:
                    yield Triple(sub, p, o)
                return
            for obj, subs in os_.items():
                for sub in subs:
                    yield Triple(sub, p, obj)
            return
        if o is not None:
            sp = self._osp.get(o)
            if sp is None:
                return
            for sub, preds in sp.items():
                for pred in preds:
                    yield Triple(sub, pred, o)
            return
        for sub, po in self._spo.items():
            for pred, objs in po.items():
                for obj in objs:
                    yield Triple(sub, pred, obj)

    def subjects(self, p: IRI | None = None, o: Term | None = None) -> Iterator[Term]:
        """Yield distinct subjects of triples matching ``(?, p, o)``."""
        seen: Set[Term] = set()
        for triple in self.triples(None, p, o):
            if triple.subject not in seen:
                seen.add(triple.subject)
                yield triple.subject

    def predicates(self, s: Term | None = None, o: Term | None = None) -> Iterator[IRI]:
        """Yield distinct predicates of triples matching ``(s, ?, o)``."""
        seen: Set[IRI] = set()
        for triple in self.triples(s, None, o):
            if triple.predicate not in seen:
                seen.add(triple.predicate)
                yield triple.predicate

    def objects(self, s: Term | None = None, p: IRI | None = None) -> Iterator[Term]:
        """Yield distinct objects of triples matching ``(s, p, ?)``."""
        seen: Set[Term] = set()
        for triple in self.triples(s, p, None):
            if triple.object not in seen:
                seen.add(triple.object)
                yield triple.object

    def value(self, s: Term | None = None, p: IRI | None = None, o: Term | None = None) -> Term | None:
        """Return one term filling the single ``None``-but-wanted slot.

        Exactly the convenience of rdflib's ``Graph.value``: with ``(s, p)``
        given, returns one object or ``None``.
        """
        if s is None and o is not None:
            for triple in self.triples(None, p, o):
                return triple.subject
            return None
        for triple in self.triples(s, p, None):
            return triple.object
        return None

    def literal_values(self, s: Term, p: IRI) -> list[str]:
        """Return the lexical forms of literal objects of ``(s, p, ?)``."""
        return [
            obj.lexical
            for obj in self.objects(s, p)
            if isinstance(obj, Literal)
        ]

    # ------------------------------------------------------------------
    # set protocol
    # ------------------------------------------------------------------
    def __contains__(self, triple: Triple) -> bool:
        objs = self._spo.get(triple.subject, {}).get(triple.predicate)
        return objs is not None and triple.object in objs

    def __len__(self) -> int:
        return self._size
