"""In-memory triple store with set semantics and deterministic iteration.

The store keeps two nested indexes, subject-first (``_spo``) and
predicate-first (``_pos``), plus a triple count.  Each index maps its first
term to a dict from its second term to the set of its third terms
(``o in _spo[s][p]``, ``s in _pos[p][o]``), so the store holds Terms only
and builds no :class:`Triple` to insert or probe.  A pattern with its
subject or predicate bound is answered from one index entry.  The two other
shapes scan: ``(s, -, o)`` walks the predicates of ``_spo[s]``, and
``(-, -, o)`` probes each predicate's entry in ``_pos``; predicates are few.

A Triple is built only where one is handed to a caller.  The public reads,
``match`` and iteration, build one per result and return them sorted by
term order, so two graphs holding the same triples behave identically no
matter how they were built.  Iteration and the writers walk ``_spo`` one
subject at a time through :meth:`Graph._sorted`, which sorts subjects, then
each subject's predicates, then each group's objects, instead of sorting
every triple by its nested key.  Each sort takes its key from an
``attrgetter``, built in C, and gives exactly the order of
:meth:`Term.sort_key`: subjects and predicates by their value alone, since
no two nodes share one (an IRI's value holds ':', a blank node label
cannot), and objects by their four fields, falling back to
:meth:`Term.sort_key` for a group that key cannot order.

Inside the package, evaluators read through :meth:`Graph._match`,
:meth:`Graph._has`, :meth:`Graph._by_object` and :meth:`Graph._nodes`
instead, and insert through :meth:`Graph._add`, :meth:`Graph._add_objects`
for many objects of one subject and predicate, or :meth:`Graph._saturate`,
the one fixpoint loop, which materialization and the rules both run on.
The reads skip the sort, so their order is unspecified: a term hashes by
identity, so a set leaf's order follows where its terms lie in memory.
``_match`` returns a new list of ``(s, p, o)`` tuples, a snapshot taken at
call time, so a caller may insert into the graph while it walks the result.
The join and the instance reader of :mod:`applekit.query` read the index
entries in place instead, ``_spo[s]`` and the ``_by_object`` entry: a set
reached that way is the graph's own, never changed or kept, and handed on
only for reading.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Iterable, Iterator
from operator import attrgetter

from .terms import Term, Triple, blank


# Term.sort_key for subjects and predicates, which are never literals: no two
# nodes share a value, since an IRI's value holds ':' and a blank label cannot.
_node_key = attrgetter("value")
# Term.sort_key for objects, wherever two of these keys compare: the kind
# names sort as the kinds do ("blank" < "iri" < "literal"), and two literals
# of one value are told apart by a datatype or tag both hold.  Where one
# holds None and the other a string, the compare raises TypeError and the
# group is sorted by Term.sort_key instead.  A sort that raises nothing has
# compared every pair adjacent in its result as Term.sort_key would, so its
# order is exact.
_object_key = attrgetter("value", "kind", "datatype", "lang")


class Graph:
    """A growing set of triples indexed for pattern matching."""

    __slots__ = ("_spo", "_pos", "_size")

    def __init__(self, triples: Iterable[Triple] = ()) -> None:
        self._spo: dict[Term, dict[Term, set[Term]]] = {}
        self._pos: dict[Term, dict[Term, set[Term]]] = {}
        self._size = 0
        for triple in triples:
            self.insert(triple)

    def insert(self, triple: Triple) -> bool:
        """Add a triple; return True when it was not already present."""
        if not isinstance(triple, Triple):
            raise TypeError(f"expected a Triple, got {type(triple).__name__}")
        return self._add(triple.s, triple.p, triple.o)

    def _add(self, s: Term, p: Term, o: Term) -> bool:
        """Insert ``(s, p, o)``; return True when it was not already present.

        The terms must form a valid triple, checked as :class:`Triple`
        checks them.  The probe is up to three lookups in ``_spo``, and a
        new triple is stored into the ``_spo`` entries the probe found.
        """
        if s.kind == "literal" or p.kind != "iri":
            Triple(s, p, o)  # raises the StructuralError that names the fault
        by_p = self._spo.get(s)
        if by_p is None:
            self._spo[s] = {p: {o}}
        else:
            by_o = by_p.get(p)
            if by_o is None:
                by_p[p] = {o}
            elif o in by_o:
                return False
            else:
                by_o.add(o)
        # get, not setdefault: setdefault would build two throwaway containers.
        by_o = self._pos.get(p)
        if by_o is None:
            self._pos[p] = {o: {s}}
        else:
            by_s = by_o.get(o)
            if by_s is None:
                by_o[o] = {s}
            else:
                by_s.add(s)
        self._size += 1
        return True

    def _add_objects(self, s: Term, p: Term, objects: set[Term] | frozenset[Term]) -> set[Term] | frozenset[Term]:
        """Insert ``(s, p, o)`` for every ``o`` in ``objects``; return the
        objects whose triple was not already present.

        The objects already stored are removed by one set difference, which
        hashes in C, so only the new triples are written into ``_pos`` one
        by one.  The result may be ``objects`` itself; the graph keeps no
        reference to either.
        """
        if not objects:
            return objects
        if s.kind == "literal" or p.kind != "iri":
            Triple(s, p, next(iter(objects)))  # raises the StructuralError that names the fault
        by_p = self._spo.get(s)
        if by_p is None:
            by_p = self._spo[s] = {}
        stored = by_p.get(p)
        if stored is None:
            new = objects
            by_p[p] = set(objects)
        else:
            new = objects - stored
            if not new:
                return new
            stored |= new
        by_o = self._pos.get(p)
        if by_o is None:
            by_o = self._pos[p] = {}
        for o in new:
            by_s = by_o.get(o)
            if by_s is None:
                by_o[o] = {s}
            else:
                by_s.add(s)
        self._size += len(new)
        return new

    def _saturate(self, entries: Iterable[tuple], derive: Callable[[tuple], Iterable[tuple]]) -> None:
        """Insert each candidate entry, and each entry a new one derives,
        until nothing new is left.

        An entry is a tuple that starts with a triple's three terms.  New
        entries are queued, and each queued entry adds ``derive(entry)`` to
        the candidates.  An entry already stored is not queued, so a caller
        starting from stored triples passes what ``derive`` gives for them.
        """
        queue: deque[tuple] = deque()
        while True:
            for entry in entries:
                if self._add(entry[0], entry[1], entry[2]):
                    queue.append(entry)
            if not queue:
                return
            entries = derive(queue.popleft())

    def _has(self, s: Term, p: Term, o: Term) -> bool:
        """True when ``(s, p, o)`` is stored."""
        by_p = self._spo.get(s)
        if by_p is None:
            return False
        by_o = by_p.get(p)
        return by_o is not None and o in by_o

    def _match(
        self, s: Term | None = None, p: Term | None = None, o: Term | None = None
    ) -> list[tuple[Term, Term, Term]]:
        """All ``(s, p, o)`` tuples matching the pattern, None acting as a
        wildcard, in no particular order.

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
                by_o = by_p.get(p, ())
                if o is not None:
                    return [(s, p, o)] if o in by_o else []
                return [(s, p, x) for x in by_o]
            if o is not None:
                return [(s, q, o) for q, by_o in by_p.items() if o in by_o]
            return [(s, q, x) for q, by_o in by_p.items() for x in by_o]
        if p is not None:
            by_o = self._pos.get(p)
            if by_o is None:
                return []
            if o is not None:
                return [(x, p, o) for x in by_o.get(o, ())]
            return [(x, p, y) for y, by_s in by_o.items() for x in by_s]
        if o is not None:
            return [(x, q, o) for q, by_o in self._pos.items() if o in by_o for x in by_o[o]]
        return [(x, q, y) for x, by_p in self._spo.items() for q, by_o in by_p.items() for y in by_o]

    def _by_object(self, p: Term) -> dict[Term, set[Term]]:
        """Each object of predicate ``p`` mapped to its subjects: the index's
        own entry, which callers must not change."""
        return self._pos.get(p, {})

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
        for s, p, o in other._match():
            self._add(get(s, s), p, get(o, o))

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
        return sorted((Triple(*hit) for hit in self._match(s, p, o)), key=Triple.sort_key)

    def copy(self) -> "Graph":
        clone = Graph()
        clone._spo = {a: {b: set(c) for b, c in inner.items()} for a, inner in self._spo.items()}
        clone._pos = {a: {b: set(c) for b, c in inner.items()} for a, inner in self._pos.items()}
        clone._size = self._size
        return clone

    def __contains__(self, triple: object) -> bool:
        return isinstance(triple, Triple) and self._has(triple.s, triple.p, triple.o)

    def __len__(self) -> int:
        return self._size

    def _sorted(self) -> Iterator[tuple[Term, dict[Term, set[Term]], Iterable[Term]]]:
        """Each subject in term order, with its index entry (each of its
        predicates mapped to that predicate's objects) and its predicates in
        term order.

        The entry is the index's own, so callers must not change it;
        :func:`_sorted_objects` puts one predicate's objects in term order.
        """
        spo = self._spo
        for s in sorted(spo, key=_node_key):
            by_p = spo[s]
            yield s, by_p, sorted(by_p, key=_node_key) if len(by_p) > 1 else by_p

    def __iter__(self) -> Iterator[Triple]:
        # A snapshot, as match() is, so the caller may insert while walking it.
        return iter([
            Triple(s, p, o)
            for s, by_p, predicates in self._sorted()
            for p in predicates
            for o in _sorted_objects(by_p[p])
        ])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._spo == other._spo

    def __repr__(self) -> str:
        return f"Graph({self._size} triples)"


def _sorted_objects(objects: set[Term]) -> Iterable[Term]:
    """The objects of one subject and predicate in term order: the set
    itself when it holds one, which callers must not change."""
    if len(objects) == 1:
        return objects
    try:
        return sorted(objects, key=_object_key)
    except TypeError:  # two literals of one value, one with a datatype or tag the other lacks
        return sorted(objects, key=Term.sort_key)
