"""Namespaces and entity IRIs of the bundled applied-ethics vocabulary.

The vocabulary reuses terms from several published ontologies (agents from
FOAF, events and actions from schema.org, participation and role patterns
from the ontology design pattern library, consequences from AIRO, and so
on); everything coined here lives under the ``apple:`` namespace.
"""

from __future__ import annotations

from .terms import OWL_NS, RDF_NS, RDFS_NS, XSD_NS, PrefixMap

APPLE = "https://purl.org/appliedethicsontology#"
AIRO = "https://w3id.org/AIRO#"
COPART = "http://www.ontologydesignpatterns.org/cp/owl/coparticipation.owl#"
EVENT = "http://w3id.org/daselab/onto/event#"
EX = "http://contextus.net/ontology/ontomedia/core/expression#"
FOAF = "http://xmlns.com/foaf/0.1/"
MODSCI = "https://w3id.org/skgo/modsci#"
OBJROLE = "http://www.ontologydesignpatterns.org/cp/owl/objectrole.owl#"
PART = "http://www.ontologydesignpatterns.org/cp/owl/participation.owl#"
SCHEMA = "http://schema.org/"
TIME = "http://www.w3.org/2006/time#"
TRAFFIC = "http://www.sensormeasurement.appspot.com/ont/transport/traffic#"
TJ = "http://w3id.org/daselab/onto/trajectory#"

DEFAULT_PREFIXES = PrefixMap(
    {
        "apple": APPLE,
        "airo": AIRO,
        "copart": COPART,
        "event": EVENT,
        "ex": EX,
        "foaf": FOAF,
        "modsci": MODSCI,
        "or": OBJROLE,
        "part": PART,
        "schema": SCHEMA,
        "time": TIME,
        "traffic": TRAFFIC,
        "tj": TJ,
        "rdf": RDF_NS,
        "rdfs": RDFS_NS,
        "owl": OWL_NS,
        "xsd": XSD_NS,
    }
)

# Classes at the heart of the moral-verdict pipeline.
ACTION = SCHEMA + "Action"
MORALLY_RIGHT_ACTION = APPLE + "MorallyRightAction"
MORALLY_WRONG_ACTION = APPLE + "MorallyWrongAction"
MORALLY_GREY_ACTION = APPLE + "MorallyGreyAction"

#: The three mutually disjoint verdict classes, in fixed report order.
VERDICT_CLASSES = (MORALLY_RIGHT_ACTION, MORALLY_WRONG_ACTION, MORALLY_GREY_ACTION)

# Properties the verdict rules and the classifier key on.
UPHOLDS_PRINCIPLE = APPLE + "upholdsEthicalPrinciple"
VIOLATES_PRINCIPLE = APPLE + "violatesEthicalPrinciple"
DOES_ACTION = TRAFFIC + "doesAction"
IS_PARTICIPANT_IN = PART + "isParticipantIn"

#: Alternate spellings accepted by the query and rule parsers.  Queries in
#: the wild pluralize some property names; each alias maps to the canonical
#: local name before catalog lookup.
NAME_ALIASES = {
    "upholdsEthicalPrinciples": "upholdsEthicalPrinciple",
    "violatesEthicalPrinciples": "violatesEthicalPrinciple",
    "EthicalPrinciples": "EthicalPrinciple",
}
