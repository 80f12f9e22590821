"""In-memory triple store with set semantics and deterministic iteration.

The store keeps two nested-dict indexes, subject-first (``_spo``) and
predicate-first (``_pos``), plus a triple count.  The innermost level of
each index maps its last term to the stored :class:`Triple`
(``_spo[s][p][o] is triple``), so reads hand back the stored objects and
never build a new triple.  A pattern with its subject or predicate bound is
answered from one index entry.  The two other shapes scan: ``(s, -, o)``
walks the predicates of ``_spo[s]``, and ``(-, -, o)`` probes each
predicate's entry in ``_pos``; predicates are few.  The public reads,
``match`` and iteration, return results sorted by term order, so two graphs
holding the same triples behave identically no matter how they were built.
Iteration and the writers walk ``_spo`` through :meth:`Graph._sorted`,
which sorts subjects, then each subject's predicates, then each group's
objects, instead of sorting every triple by its nested key.

Inside the package, evaluators that collect results into sets or sort them
later read through :meth:`Graph._match` and :meth:`Graph._nodes` instead.
These skip the sort, so their order is unspecified.  ``_match`` returns a
new list of the stored triples, a snapshot taken at call time, so a caller
may insert into the graph while it walks the result.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from operator import attrgetter

from .terms import Term, Triple, blank


# Term.sort_key for subjects and predicates, which are never literals: the
# kind names sort as the kinds do ("blank" < "iri"), and an attrgetter
# builds the key without a Python-level call.
_node_key = attrgetter("value", "kind")


def _index_add(index: dict, a: Term, b: Term, c: Term, triple: Triple) -> None:
    # get, not setdefault: setdefault would build two throwaway dicts per call.
    second = index.get(a)
    if second is None:
        index[a] = {b: {c: triple}}
        return
    third = second.get(b)
    if third is None:
        second[b] = {c: triple}
    else:
        third[c] = triple


class Graph:
    """A growing set of triples indexed for pattern matching."""

    __slots__ = ("_spo", "_pos", "_size")

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._spo: dict[Term, dict[Term, dict[Term, Triple]]] = {}
        self._pos: dict[Term, dict[Term, dict[Term, Triple]]] = {}
        self._size = 0
        for triple in triples:
            self.insert(triple)

    def insert(self, triple: Triple) -> bool:
        """Add a triple; return True when it was not already present."""
        if not isinstance(triple, Triple):
            raise TypeError(f"expected a Triple, got {type(triple).__name__}")
        if triple in self:
            return False
        self._store(triple)
        return True

    def _add(self, s: Term, p: Term, o: Term) -> Triple | None:
        """Insert ``(s, p, o)`` unless it is stored; return the new Triple,
        or None when it was already present.

        The probe is up to three dict lookups in ``_spo``, so a triple
        already present builds no Triple, and a new one is stored into the
        ``_spo`` dicts the probe found.
        """
        by_p = self._spo.get(s)
        if by_p is None:
            triple = Triple(s, p, o)
            self._spo[s] = {p: {o: triple}}
        else:
            by_o = by_p.get(p)
            if by_o is None:
                triple = Triple(s, p, o)
                by_p[p] = {o: triple}
            elif o in by_o:
                return None
            else:
                triple = by_o[o] = Triple(s, p, o)
        _index_add(self._pos, p, o, s, triple)
        self._size += 1
        return triple

    def _store(self, triple: Triple) -> None:
        _index_add(self._spo, triple.s, triple.p, triple.o, triple)
        _index_add(self._pos, triple.p, triple.o, triple.s, triple)
        self._size += 1

    def _match(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> list[Triple]:
        """All triples matching the pattern, None acting as a wildcard, in no
        particular order.

        The result is a new list, so the graph may change while the caller
        walks it.  Patterns no stored triple could ever satisfy (a literal in
        subject position, a non-IRI predicate) match nothing rather than
        raising, so callers can probe with arbitrary bound terms.
        """
        if (s is not None and s.kind == "literal") or (p is not None and p.kind != "iri"):
            return []
        if s is not None:
            by_p = self._spo.get(s)
            if by_p is None:
                return []
            if p is not None:
                by_o = by_p.get(p, {})
                if o is not None:
                    stored = by_o.get(o)
                    return [] if stored is None else [stored]
                return list(by_o.values())
            if o is not None:
                return [by_o[o] for by_o in by_p.values() if o in by_o]
            return [stored for by_o in by_p.values() for stored in by_o.values()]
        if p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return []
            if o is not None:
                return list(by_o.get(o, {}).values())
            return [stored for by_s in by_o.values() for stored in by_s.values()]
        if o is not None:
            return [stored for by_o in self._pos.values() if o in by_o for stored in by_o[o].values()]
        return [stored for by_p in self._spo.values() for by_o in by_p.values() for stored in by_o.values()]

    def _merge(self, other: "Graph") -> None:
        """Add the triples of ``other``, a graph read from another document.

        A blank node label names a node only inside its document, so each
        blank node of ``other`` whose label this graph already uses is
        renamed ``<label>_<n>``, with the smallest ``n`` from 2 that
        neither graph uses, taking the clashing labels in sorted order.
        """
        ours = {term.value for term in self._nodes() if term.kind == "blank"}
        theirs = {term.value for term in other._nodes() if term.kind == "blank"}
        taken = ours | theirs
        renamed: dict[Term, Term] = {}
        for label in sorted(ours & theirs):
            n = 2
            while f"{label}_{n}" in taken:
                n += 1
            taken.add(f"{label}_{n}")
            renamed[blank(label)] = blank(f"{label}_{n}")
        get = renamed.get
        for triple in other._match():
            self._add(get(triple.s, triple.s), triple.p, get(triple.o, triple.o))

    def _nodes(self) -> set[Term]:
        """Every IRI or blank node in subject or object position, unordered."""
        seen = set(self._spo)
        for by_o in self._pos.values():
            seen.update(term for term in by_o if term.kind != "literal")
        return seen

    def match(self, s: Term | None = None, p: Term | None = None, o: Term | None = None) -> list[Triple]:
        """All triples matching the pattern, None acting as a wildcard, sorted.

        Patterns no stored triple could ever satisfy (a literal in subject
        position, a non-IRI predicate) match nothing rather than raising, so
        callers can probe with arbitrary bound terms.
        """
        return sorted(self._match(s, p, o), key=Triple.sort_key)

    def copy(self) -> "Graph":
        clone = Graph()
        clone._spo = {a: {b: dict(c) for b, c in inner.items()} for a, inner in self._spo.items()}
        clone._pos = {a: {b: dict(c) for b, c in inner.items()} for a, inner in self._pos.items()}
        clone._size = self._size
        return clone

    def __contains__(self, triple: object) -> bool:
        if not isinstance(triple, Triple):
            return False
        by_p = self._spo.get(triple.s)
        if by_p is None:
            return False
        by_o = by_p.get(triple.p)
        return by_o is not None and triple.o in by_o

    def __len__(self) -> int:
        return self._size

    def _sorted(self) -> Iterator[tuple[Term, Term, dict[Term, Triple]]]:
        """Every ``(subject, predicate, objects)`` group in term order.

        ``objects`` maps each object to its stored Triple in term order.
        Subjects are sorted once and each subject's predicates once; a
        group with a single object is the index's own dict, so callers
        must not change it.
        """
        spo = self._spo
        for s in sorted(spo, key=_node_key):
            by_p = spo[s]
            for p in sorted(by_p, key=_node_key) if len(by_p) > 1 else by_p:
                by_o = by_p[p]
                yield s, p, by_o if len(by_o) == 1 else {o: by_o[o] for o in sorted(by_o, key=Term.sort_key)}

    def __iter__(self) -> Iterator[Triple]:
        # A snapshot, as match() is, so the caller may insert while walking it.
        return iter([triple for _, _, objects in self._sorted() for triple in objects.values()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._spo == other._spo

    def __repr__(self) -> str:
        return f"Graph({self._size} triples)"
