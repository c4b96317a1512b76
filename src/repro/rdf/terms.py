"""RDF terms: IRIs, literals and blank nodes.

Terms are immutable, hashable values so they can serve as dictionary keys
in the triple indexes of :class:`repro.rdf.graph.Graph`. Equality follows
RDF 1.1 term equality: two literals are equal when their lexical form,
datatype and language tag all coincide.
"""

from __future__ import annotations

import itertools
import re
import threading
from dataclasses import dataclass, field
from typing import Union

_XSD = "http://www.w3.org/2001/XMLSchema#"

XSD_STRING = _XSD + "string"
XSD_INTEGER = _XSD + "integer"
XSD_DECIMAL = _XSD + "decimal"
XSD_DOUBLE = _XSD + "double"
XSD_BOOLEAN = _XSD + "boolean"
RDF_LANGSTRING = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString"

_IRI_FORBIDDEN = re.compile('[<>" \n\t\r]')


class TermError(ValueError):
    """Raised when a term is constructed from invalid components."""


@dataclass(frozen=True, slots=True)
class IRI:
    """An absolute IRI reference, e.g. ``IRI("http://example.org/p1")``.

    Only minimal validation is applied (non-empty, no angle brackets and no
    literal whitespace) — full RFC 3987 validation is out of scope and the
    generators in :mod:`repro.datagen` only emit well-formed IRIs.
    """

    value: str

    def __post_init__(self) -> None:
        if not self.value:
            raise TermError("IRI must be a non-empty string")
        if _IRI_FORBIDDEN.search(self.value):
            raise TermError(f"IRI contains forbidden character: {self.value!r}")

    def __str__(self) -> str:
        return self.value

    def n3(self) -> str:
        """Return the N-Triples serialization, e.g. ``<http://...>``."""
        return f"<{self.value}>"

    @property
    def local_name(self) -> str:
        """The fragment after the last ``#`` or ``/`` (best-effort)."""
        for sep in ("#", "/"):
            if sep in self.value:
                tail = self.value.rsplit(sep, 1)[1]
                if tail:
                    return tail
        return self.value


_ESCAPES = {
    "\\": "\\\\",
    '"': '\\"',
    "\n": "\\n",
    "\r": "\\r",
    "\t": "\\t",
}


def _escape_literal(text: str) -> str:
    out = []
    for ch in text:
        out.append(_ESCAPES.get(ch, ch))
    return "".join(out)


@dataclass(frozen=True, slots=True)
class Literal:
    """An RDF literal with optional datatype IRI or language tag.

    ``Literal("ohm")`` is a plain ``xsd:string`` literal;
    ``Literal("42", datatype=XSD_INTEGER)`` a typed one;
    ``Literal("Widerstand", language="de")`` a language-tagged string.
    A literal cannot carry both a datatype and a language tag (RDF 1.1:
    language-tagged strings implicitly have datatype ``rdf:langString``).
    """

    lexical: str
    datatype: str = XSD_STRING
    language: str | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.lexical, str):
            raise TermError(
                f"literal lexical form must be str, got {type(self.lexical).__name__}"
            )
        if self.language is not None:
            if self.datatype not in (XSD_STRING, RDF_LANGSTRING):
                raise TermError("a literal cannot have both datatype and language")
            object.__setattr__(self, "datatype", RDF_LANGSTRING)
            object.__setattr__(self, "language", self.language.lower())

    def __str__(self) -> str:
        return self.lexical

    def n3(self) -> str:
        """Return the N-Triples serialization of this literal."""
        body = f'"{_escape_literal(self.lexical)}"'
        if self.language is not None:
            return f"{body}@{self.language}"
        if self.datatype != XSD_STRING:
            return f"{body}^^<{self.datatype}>"
        return body

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert to the closest Python value for known XSD datatypes.

        Unknown datatypes and unparsable lexical forms fall back to the raw
        lexical string rather than raising: the learner treats every value
        as text anyway, so a lossy conversion must never abort a pipeline.
        """
        try:
            if self.datatype == XSD_INTEGER:
                return int(self.lexical)
            if self.datatype in (XSD_DECIMAL, XSD_DOUBLE):
                return float(self.lexical)
            if self.datatype == XSD_BOOLEAN:
                return self.lexical.strip() in ("true", "1")
        except ValueError:
            return self.lexical
        return self.lexical


_bnode_counter = itertools.count()
_bnode_lock = threading.Lock()


def _next_bnode_id() -> str:
    with _bnode_lock:
        return f"b{next(_bnode_counter)}"


@dataclass(frozen=True, slots=True)
class BNode:
    """A blank node. Without an explicit id, a fresh unique id is minted."""

    id: str = field(default_factory=_next_bnode_id)

    def __post_init__(self) -> None:
        if not self.id:
            raise TermError("blank node id must be non-empty")

    def __str__(self) -> str:
        return f"_:{self.id}"

    def n3(self) -> str:
        """Return the N-Triples serialization, e.g. ``_:b0``."""
        return f"_:{self.id}"


Term = Union[IRI, Literal, BNode]


def term_from_python(value: object) -> Term:
    """Coerce a Python value into an RDF term.

    Existing terms pass through; ``bool``/``int``/``float`` become typed
    literals; everything else is stringified into a plain literal. This is
    the convenience path used by the data generators and examples.
    """
    if isinstance(value, (IRI, Literal, BNode)):
        return value
    if isinstance(value, bool):
        return Literal("true" if value else "false", datatype=XSD_BOOLEAN)
    if isinstance(value, int):
        return Literal(str(value), datatype=XSD_INTEGER)
    if isinstance(value, float):
        return Literal(repr(value), datatype=XSD_DOUBLE)
    return Literal(str(value))
