"""Atomic RDF-style values: terms, triples, and prefix maps.

A term is an IRI, a labeled blank node, or a literal (optionally carrying a
datatype IRI or a language tag, never both).  Terms and triples are frozen
dataclasses so they can live in sets and dict keys; every container in the
toolkit sorts them with :func:`Term.sort_key` so output order never depends
on insertion order.

Both classes use ``__slots__`` and compute their hash once, at construction,
into a private ``_hash`` field that takes no part in equality or ``repr``.
A triple's hash combines the cached hashes of its three terms, so set and
dict lookups never rehash the strings inside.  Pickling rebuilds from the
public fields, so a hash never crosses a process boundary.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

RDF_NS = "http://www.w3.org/1999/02/22-rdf-syntax-ns#"
RDFS_NS = "http://www.w3.org/2000/01/rdf-schema#"
OWL_NS = "http://www.w3.org/2002/07/owl#"
XSD_NS = "http://www.w3.org/2001/XMLSchema#"

RDF_TYPE = RDF_NS + "type"
RDF_PROPERTY = RDF_NS + "Property"
RDFS_SUBCLASSOF = RDFS_NS + "subClassOf"
RDFS_SUBPROPERTYOF = RDFS_NS + "subPropertyOf"
RDFS_DOMAIN = RDFS_NS + "domain"
RDFS_RANGE = RDFS_NS + "range"
RDFS_LABEL = RDFS_NS + "label"
OWL_CLASS = OWL_NS + "Class"
OWL_OBJECT_PROPERTY = OWL_NS + "ObjectProperty"
OWL_DATATYPE_PROPERTY = OWL_NS + "DatatypeProperty"
OWL_INVERSE_OF = OWL_NS + "inverseOf"
OWL_DISJOINT_WITH = OWL_NS + "disjointWith"
OWL_RESTRICTION = OWL_NS + "Restriction"
OWL_ON_PROPERTY = OWL_NS + "onProperty"
OWL_SOME_VALUES_FROM = OWL_NS + "someValuesFrom"
XSD_STRING = XSD_NS + "string"

#: Namespaces whose members are vocabulary, not user classes or properties.
BUILTIN_NAMESPACES = (RDF_NS, RDFS_NS, OWL_NS, XSD_NS)


class StructuralError(ValueError):
    """A term or triple violates its structural invariants."""


_KIND_ORDER = {"blank": 0, "iri": 1, "literal": 2}
_IRI_FORBIDDEN = re.compile('[<>" \n\t]')
# A language tag as Turtle writes it after '@' (BCP 47 shape, unchecked
# against the registry).
_LANGTAG = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:-[A-Za-z0-9]+)*")

_LITERAL_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


# The characters escape_literal_value rewrites: quote, backslash, controls.
_NEEDS_ESCAPE = re.compile(r'[\x00-\x1f"\\]')


def _escape_char(match: re.Match) -> str:
    ch = match[0]
    return _LITERAL_ESCAPES.get(ch) or f"\\u{ord(ch):04X}"


def escape_literal_value(value: str) -> str:
    """Escape a literal's lexical form for quoting inside double quotes."""
    return _NEEDS_ESCAPE.sub(_escape_char, value)


@dataclass(frozen=True, slots=True)
class Term:
    kind: str  # "iri" | "blank" | "literal"
    value: str
    datatype: str | None = None
    lang: str | None = None
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind == "iri":
            if ":" not in self.value:
                raise StructuralError(f"IRI is not absolute: {self.value!r}")
            if _IRI_FORBIDDEN.search(self.value):
                raise StructuralError(f"IRI contains a forbidden character: {self.value!r}")
        elif self.kind == "blank":
            if not self.value:
                raise StructuralError("blank node label must be non-empty")
        elif self.kind == "literal":
            if self.datatype is not None:
                if self.lang is not None:
                    raise StructuralError("literal cannot carry both a datatype and a language tag")
                if self.datatype == XSD_STRING:
                    # A simple literal is an xsd:string: one Term for both spellings.
                    object.__setattr__(self, "datatype", None)
                elif ":" not in self.datatype or _IRI_FORBIDDEN.search(self.datatype):
                    raise StructuralError(f"literal datatype is not an absolute IRI: {self.datatype!r}")
            elif self.lang is not None and not _LANGTAG.fullmatch(self.lang):
                raise StructuralError(f"invalid language tag: {self.lang!r}")
        else:
            raise StructuralError(f"unknown term kind: {self.kind!r}")
        if self.kind != "literal" and (self.datatype is not None or self.lang is not None):
            raise StructuralError(f"only literals may carry a datatype or language tag, not {self.kind}")
        object.__setattr__(self, "_hash", hash((self.kind, self.value, self.datatype, self.lang)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Term, (self.kind, self.value, self.datatype, self.lang))

    def is_iri(self) -> bool:
        return self.kind == "iri"

    def is_blank(self) -> bool:
        return self.kind == "blank"

    def is_literal(self) -> bool:
        return self.kind == "literal"

    def sort_key(self) -> tuple:
        return (self.value, _KIND_ORDER[self.kind], self.datatype or "", self.lang or "")

    def n3(self) -> str:
        """Canonical N-Triples style rendering, used for digests and messages."""
        if self.kind == "iri":
            return f"<{self.value}>"
        if self.kind == "blank":
            return f"_:{self.value}"
        quoted = f'"{escape_literal_value(self.value)}"'
        if self.lang is not None:
            return f"{quoted}@{self.lang}"
        if self.datatype is not None:
            return f"{quoted}^^<{self.datatype}>"
        return quoted


def iri(value: str) -> Term:
    return Term("iri", value)


def blank(label: str) -> Term:
    return Term("blank", label)


def literal(value: str, datatype: str | None = None, lang: str | None = None) -> Term:
    return Term("literal", value, datatype=datatype, lang=lang)


@dataclass(frozen=True, slots=True)
class Triple:
    s: Term
    p: Term
    o: Term
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.s.kind == "literal":
            raise StructuralError("triple subject cannot be a literal")
        if self.p.kind != "iri":
            raise StructuralError("triple predicate must be an IRI")
        object.__setattr__(self, "_hash", hash((self.s._hash, self.p._hash, self.o._hash)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:
        return (Triple, (self.s, self.p, self.o))

    def sort_key(self) -> tuple:
        return (self.s.sort_key(), self.p.sort_key(), self.o.sort_key())

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."


# PN_PREFIX: a '.' may appear inside a prefix label but not at its end.
_PNAME_PREFIX_RE = re.compile(r"[A-Za-z](?:[A-Za-z0-9_.\-]*[A-Za-z0-9_\-])?")
_PNAME_LOCAL_RE = re.compile(r"[A-Za-z0-9_][A-Za-z0-9_.\-]*")


def valid_local_name(local: str) -> bool:
    """True when a local name can be written as part of a prefixed name."""
    return bool(_PNAME_LOCAL_RE.fullmatch(local)) and not local.endswith(".")


class PrefixMap:
    """Bidirectional prefix/namespace bindings with longest-match compression."""

    def __init__(self, bindings: dict[str, str] | None = None) -> None:
        self._bindings: dict[str, str] = {}
        if bindings:
            for prefix, namespace in bindings.items():
                self.bind(prefix, namespace)

    def bind(self, prefix: str, namespace: str) -> None:
        if prefix and not _PNAME_PREFIX_RE.fullmatch(prefix):
            raise StructuralError(f"invalid prefix label: {prefix!r}")
        if ":" not in namespace:
            raise StructuralError(f"namespace is not an absolute IRI: {namespace!r}")
        self._bindings[prefix] = namespace

    def namespace(self, prefix: str) -> str | None:
        return self._bindings.get(prefix)

    def expand(self, prefix: str, local: str) -> str | None:
        namespace = self._bindings.get(prefix)
        if namespace is None:
            return None
        return namespace + local

    def compress(self, iri_value: str) -> str | None:
        """Return ``prefix:local`` for the longest matching namespace, or None."""
        best: tuple[int, str, str] | None = None
        for prefix, namespace in self._bindings.items():
            if iri_value.startswith(namespace) and len(namespace) < len(iri_value):
                local = iri_value[len(namespace):]
                if not valid_local_name(local):
                    continue
                if best is None or len(namespace) > best[0] or (len(namespace) == best[0] and prefix < best[1]):
                    best = (len(namespace), prefix, local)
        if best is None:
            return None
        return f"{best[1]}:{best[2]}"

    def items(self) -> list[tuple[str, str]]:
        return sorted(self._bindings.items())

    def copy(self) -> "PrefixMap":
        return PrefixMap(dict(self._bindings))

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)
