"""Atomic RDF-style values: terms, triples, and prefix maps.

A term is an IRI, a labeled blank node, or a literal (optionally carrying a
datatype IRI or a language tag, never both).  Every container in the
toolkit sorts terms with :func:`Term.sort_key`, so output order never
depends on insertion order or on where a term lives in memory.

Terms are interned: ``Term(...)`` returns the one live object with those
four fields, building and checking a new one only when none is alive.  So
two terms are equal exactly when they are the same object, and a term
hashes by identity; both run in C, with no Python frame per dict or set
probe.  The table behind this holds its terms through weak references, so
a term no caller holds is freed and its entry removed, and the table never
grows beyond the terms alive.  Pickling, ``copy`` and ``deepcopy`` give back
the interned object.

A triple is a slots class like a term, but not interned.  It hashes its
three terms once, at construction, into a private ``_hash`` slot that takes
no part in equality or ``repr``, and none of its attributes can be set.
Pickling rebuilds it from its terms, so a hash never crosses a process
boundary.

The module owns term syntax: ``Term``, ``PrefixMap`` and the Turtle reader
share its IRI body, name characters and language tag, so the reader reads
back every IRI, datatype IRI and namespace a caller can build.

The module also defines the error types the CLI maps to exit codes, so
that the CLI can catch each of them without importing the layer that
raises it.  Each layer re-exports its own.  And it holds the one JSON
writer, :func:`json_text`, which every JSON report goes through.
"""

from __future__ import annotations

import json
import re
import weakref
from _weakref import _remove_dead_weakref
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .turtle import ParseDiagnostic

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


class SchemaError(Exception):
    """The graph's schema-level statements are malformed or inconsistent."""


class TurtleParseError(Exception):
    """Raised on the first syntax or reference error in a document."""

    def __init__(self, diagnostic: ParseDiagnostic) -> None:
        super().__init__(diagnostic.render())
        self.diagnostic = diagnostic

    @property
    def line(self) -> int:
        return self.diagnostic.line

    @property
    def column(self) -> int:
        return self.diagnostic.column


class QueryParseError(Exception):
    """The query text cannot be parsed or references unknown names."""

    def __init__(self, message: str, position: int | None = None) -> None:
        suffix = f" (at offset {position})" if position is not None else ""
        super().__init__(message + suffix)
        self.position = position


class RuleError(Exception):
    """A rule file is syntactically or semantically unusable."""


class VerdictConflictError(RuleError):
    """An action was derived into more than one verdict class."""

    def __init__(self, action: str, classes: tuple[str, ...]) -> None:
        super().__init__(f"action {action} received contradictory verdicts: {', '.join(classes)}")
        self.action = action
        self.classes = classes


class AssetError(Exception):
    """A bundled asset is missing, unreadable, or fails its integrity check."""


_KIND_ORDER = {"blank": 0, "iri": 1, "literal": 2}
# The body of an IRIREF between '<' and '>' (Turtle 1.1, with no escapes):
# no control character or space, and none of <>"{}|^`\.
_IRI_BODY = re.compile(r"""[^\x00-\x20<>"{}|^`\\]*""")
# A character of a prefix label or local name; a name run does not end in '.'.
_NAME_CHAR = r"[A-Za-z0-9_.\-]"
_NAME = _NAME_CHAR + r"*(?<!\.)"
# A blank node label, what the Turtle reader takes after '_:': the ASCII
# part of Turtle's BLANK_NODE_LABEL, a name that starts with a letter, a
# digit or '_'.
_BLANK_LABEL = re.compile(r"[A-Za-z0-9_]" + _NAME)
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


class _Entry(weakref.ref):
    """The interning table's weak reference to a term, carrying its key."""

    __slots__ = ("key",)


# The live Term of each key, held weakly: an IRI's key is its value, any
# other term's is (kind, value, datatype, lang).  Holding no Term alive, the
# table shrinks as terms die.
_interned: dict[str | tuple, _Entry] = {}


def _forget(entry: _Entry) -> None:
    """A dead term's weakref callback: drop its entry, unless a term built
    again since has replaced it; the check and the delete are one C call."""
    _remove_dead_weakref(_interned, entry.key)


def _check(kind: str, value: str, datatype: str | None, lang: str | None) -> None:
    """Raise StructuralError when the fields do not form a term."""
    if kind == "iri":
        if ":" not in value:
            raise StructuralError(f"IRI is not absolute: {value!r}")
        if not _IRI_BODY.fullmatch(value):
            raise StructuralError(f"IRI contains a forbidden character: {value!r}")
    elif kind == "blank":
        if not value:
            raise StructuralError("blank node label must be non-empty")
        if not _BLANK_LABEL.fullmatch(value):
            raise StructuralError(f"blank node label cannot be written after '_:': {value!r}")
    elif kind == "literal":
        if datatype is not None:
            if lang is not None:
                raise StructuralError("literal cannot carry both a datatype and a language tag")
            if ":" not in datatype or not _IRI_BODY.fullmatch(datatype):
                raise StructuralError(f"literal datatype is not an absolute IRI: {datatype!r}")
        elif lang is not None and not _LANGTAG.fullmatch(lang):
            raise StructuralError(f"invalid language tag: {lang!r}")
    else:
        raise StructuralError(f"unknown term kind: {kind!r}")
    if kind != "literal" and (datatype is not None or lang is not None):
        raise StructuralError(f"only literals may carry a datatype or language tag, not {kind}")


class _Immutable:
    """A slots class whose fields cannot be assigned or deleted; each error
    names the field and the class's ``_noun``.  A class fills its slots
    past this, through the slot descriptors or ``object.__setattr__``."""

    __slots__ = ()

    _noun: str

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {self._noun}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {self._noun}")


class Term(_Immutable):
    """An IRI, a blank node or a literal; one live object per distinct value.

    ``Term(...)`` returns the existing object when one with the same four
    fields is alive, so equality is identity and hashing is the object's
    own, both in C.  The fields cannot be set.
    """

    __slots__ = ("kind", "value", "datatype", "lang", "__weakref__")
    _noun = "an interned Term"

    kind: str  # "iri" | "blank" | "literal"
    value: str
    datatype: str | None
    lang: str | None

    def __new__(cls, kind: str, value: str, datatype: str | None = None, lang: str | None = None) -> "Term":
        if datatype == XSD_STRING and lang is None and kind == "literal":
            datatype = None  # a simple literal is an xsd:string: one Term for both spellings
        if kind == "iri" and datatype is None and lang is None:
            key: str | tuple = value
        else:
            key = (kind, value, datatype, lang)
        entry = _interned.get(key)
        if entry is not None:
            term = entry()
            if term is not None:
                return term
        _check(kind, value, datatype, lang)
        term = object.__new__(cls)
        _set_kind(term, kind)
        _set_value(term, value)
        _set_datatype(term, datatype)
        _set_lang(term, lang)
        entry = _Entry(term, _forget)
        entry.key = key
        while True:
            # setdefault is one atomic step, so of two threads building the
            # same term, the second gets the first's object.
            stored = _interned.setdefault(key, entry)
            if stored is entry:
                return term
            other = stored()
            if other is not None:
                return other
            _remove_dead_weakref(_interned, key)  # a dead entry whose callback has not run yet

    def __repr__(self) -> str:
        return f"Term(kind={self.kind!r}, value={self.value!r}, datatype={self.datatype!r}, lang={self.lang!r})"

    def __reduce__(self) -> tuple:
        return (Term, (self.kind, self.value, self.datatype, self.lang))

    def __copy__(self) -> "Term":
        return self

    def __deepcopy__(self, memo: dict) -> "Term":
        return self

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

# The slots' own setters: Term.__new__ fills a new term through them, past
# Term.__setattr__, at about half the cost of object.__setattr__.
_set_kind, _set_value, _set_datatype, _set_lang = (
    Term.__dict__[name].__set__ for name in ("kind", "value", "datatype", "lang")
)


def iri(value: str) -> Term:
    return Term("iri", value)


def blank(label: str) -> Term:
    return Term("blank", label)


def literal(value: str, datatype: str | None = None, lang: str | None = None) -> Term:
    return Term("literal", value, datatype=datatype, lang=lang)


class Triple(_Immutable):
    """An ``(s, p, o)`` statement, checked and hashed once when built.

    Two triples are equal when their terms are; terms are interned, so that
    is identity.  The fields cannot be set.
    """

    __slots__ = ("s", "p", "o", "_hash")
    _noun = "a Triple"

    s: Term
    p: Term
    o: Term
    _hash: int

    def __init__(self, s: Term, p: Term, o: Term) -> None:
        if s.kind == "literal":
            raise StructuralError("triple subject cannot be a literal")
        if p.kind != "iri":
            raise StructuralError("triple predicate must be an IRI")
        _set_s(self, s)
        _set_p(self, p)
        _set_o(self, o)
        _set_hash(self, hash((s, p, o)))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Triple:
            return NotImplemented
        return self.s is other.s and self.p is other.p and self.o is other.o

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Triple(s={self.s!r}, p={self.p!r}, o={self.o!r})"

    def __reduce__(self) -> tuple:
        return (Triple, (self.s, self.p, self.o))

    def sort_key(self) -> tuple:
        return (self.s.sort_key(), self.p.sort_key(), self.o.sort_key())

    def n3(self) -> str:
        return f"{self.s.n3()} {self.p.n3()} {self.o.n3()} ."

# As for Term: Triple.__init__ fills its slots past Triple.__setattr__.
_set_s, _set_p, _set_o, _set_hash = (Triple.__dict__[name].__set__ for name in ("s", "p", "o", "_hash"))


# PN_PREFIX and PN_LOCAL: a name does not end in '.', a local name starts with neither '.' nor '-'.
_PNAME_PREFIX_RE = re.compile(r"[A-Za-z]" + _NAME)
_PNAME_LOCAL_RE = re.compile(r"(?![.\-])" + _NAME_CHAR + _NAME)


def valid_local_name(local: str) -> bool:
    """True when a local name can be written as part of a prefixed name."""
    return _PNAME_LOCAL_RE.fullmatch(local) is not None


# The characters a local name can hold.
_LOCAL_CHARS = "".join(filter(re.compile(_NAME_CHAR).fullmatch, map(chr, range(128))))


class PrefixMap:
    """Bidirectional prefix/namespace bindings with longest-match compression."""

    def __init__(self, bindings: dict[str, str] | None = None) -> None:
        self._bindings: dict[str, str] = {}
        # Built by compress, dropped by bind: each namespace's head (itself
        # without its trailing local-name characters) -> its bindings,
        # longest namespace first, then by prefix.
        self._heads: dict[str, list[tuple[str, str]]] | None = None
        if bindings:
            for prefix, namespace in bindings.items():
                self.bind(prefix, namespace)

    def bind(self, prefix: str, namespace: str) -> None:
        if prefix and not _PNAME_PREFIX_RE.fullmatch(prefix):
            raise StructuralError(f"invalid prefix label: {prefix!r}")
        if ":" not in namespace or not _IRI_BODY.fullmatch(namespace):
            raise StructuralError(f"namespace is not an absolute IRI: {namespace!r}")
        self._bindings[prefix] = namespace
        self._heads = None

    def namespace(self, prefix: str) -> str | None:
        return self._bindings.get(prefix)

    def expand(self, prefix: str, local: str) -> str | None:
        namespace = self._bindings.get(prefix)
        if namespace is None:
            return None
        return namespace + local

    def compress(self, iri_value: str) -> str | None:
        """Return ``prefix:local`` for the longest matching namespace, or None.

        A local name holds only ``_LOCAL_CHARS``, so a namespace that can
        compress the IRI is the IRI's head followed by local-name characters:
        its own head is the IRI's.  One ``rstrip`` and one dict probe find
        those namespaces, already in the order that picks the answer.
        """
        heads = self._heads
        if heads is None:
            heads = self._heads = {}
            for prefix, namespace in sorted(self._bindings.items(), key=lambda item: (-len(item[1]), item[0])):
                heads.setdefault(namespace.rstrip(_LOCAL_CHARS), []).append((prefix, namespace))
        for prefix, namespace in heads.get(iri_value.rstrip(_LOCAL_CHARS), ()):
            if iri_value.startswith(namespace) and len(namespace) < len(iri_value):
                local = iri_value[len(namespace):]
                if valid_local_name(local):
                    return f"{prefix}:{local}"
        return None

    def items(self) -> list[tuple[str, str]]:
        return sorted(self._bindings.items())

    def copy(self) -> "PrefixMap":
        return PrefixMap(dict(self._bindings))

    def __contains__(self, prefix: str) -> bool:
        return prefix in self._bindings

    def __len__(self) -> int:
        return len(self._bindings)


_escape_json = json.encoder.encode_basestring_ascii


def json_text(obj: object) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for a
    payload of dicts with string keys, lists, tuples and scalars.

    ``indent`` sends ``json.dumps`` to its pure-Python encoder; here the
    containers are laid out in one recursive walk, strings are escaped by
    the encoder's own C function, and any other scalar is written by
    ``json.dumps`` without indent.
    """
    parts: list[str] = []
    _write_json(obj, "\n", parts.append)
    return "".join(parts)


def _write_json(obj: object, newline: str, write: Callable[[str], None]) -> None:
    """Write ``obj`` through ``write``; ``newline`` is a line break followed
    by the indent of the line that holds ``obj``."""
    if isinstance(obj, str):
        write(_escape_json(obj))
    elif isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, value in sorted(obj.items()):
            write(f"{separator}{_escape_json(key)}: ")
            _write_json(value, inner, write)
            separator = "," + inner
        write(newline + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            write("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for value in obj:
            write(separator)
            _write_json(value, inner, write)
            separator = "," + inner
        write(newline + "]")
    else:
        write(json.dumps(obj))
