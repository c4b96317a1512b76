"""repro — reproduction of "Classification Rule Learning for Data Linking".

Pernelle & Saïs, LWDM workshop @ EDBT/ICDT 2012.

The package learns value-based classification rules
``p(X,Y) ∧ subsegment(Y,a) ⇒ c(X)`` from expert-validated ``sameAs``
links and uses them to cut the data-linking space when the external
schema is unknown. It ships every substrate the paper relies on: an RDF
data model, an OWL-lite ontology layer, segmentation and string
similarity, the rule learner itself, classic blocking baselines, a
synthetic stand-in for the proprietary Thales catalog, and the full
experiment harness (``docs/architecture.md`` maps the layers;
``docs/benchmarks.md`` maps each paper result to the command that
regenerates it and the test that pins it).

Quickstart::

    from repro import (
        CatalogConfig, ElectronicCatalogGenerator,
        LearnerConfig, RuleLearner, RuleClassifier,
    )

    catalog = ElectronicCatalogGenerator(CatalogConfig.small()).generate()
    rules = RuleLearner(LearnerConfig(support_threshold=0.004)).learn(
        catalog.to_training_set()
    )
    classifier = RuleClassifier(rules.with_min_confidence(0.8))
"""

# rdf substrate
from repro.rdf import (
    IRI,
    Literal,
    BNode,
    Triple,
    Graph,
    Dataset,
    Namespace,
    NamespaceManager,
    RDF,
    RDFS,
    OWL,
    XSD,
    EX,
    parse_ntriples,
    serialize_ntriples,
)

# ontology substrate
from repro.ontology import (
    Ontology,
    OntClass,
    ClassHierarchy,
    RDFSReasoner,
    ontology_from_graph,
    ontology_to_graph,
)

# text substrate
from repro.text import (
    SeparatorSegmenter,
    NGramSegmenter,
    TokenSegmenter,
    CompositeSegmenter,
    normalize_value,
    segment_statistics,
)

# the paper's core
from repro.core import (
    SameAsLink,
    TrainingSet,
    ClassificationRule,
    RuleSet,
    RuleQualityMeasures,
    ContingencyCounts,
    LearnerConfig,
    RuleLearner,
    ClassPrediction,
    RuleClassifier,
    LinkingSubspace,
    SubspaceReduction,
    RuleGeneralizer,
)

# linking substrate
from repro.linking import (
    Record,
    RecordStore,
    StandardBlocking,
    SortedNeighbourhood,
    QGramBlocking,
    CanopyBlocking,
    RuleBasedBlocking,
    FullIndex,
    FieldComparator,
    RecordComparator,
    ThresholdMatcher,
    FellegiSunterMatcher,
    LinkingPipeline,
    evaluate_blocking,
    evaluate_matching,
)

# batch linking engine
from repro.engine import (
    CachedRecordComparator,
    EngineProgress,
    EngineStats,
    JobConfig,
    LinkingJob,
)

# data generation
from repro.datagen import (
    CatalogConfig,
    ElectronicCatalogGenerator,
    Corruptor,
    CorruptionConfig,
)

__version__ = "1.0.0"

__all__ = [
    # rdf
    "IRI", "Literal", "BNode", "Triple", "Graph", "Dataset",
    "Namespace", "NamespaceManager", "RDF", "RDFS", "OWL", "XSD", "EX",
    "parse_ntriples", "serialize_ntriples",
    # ontology
    "Ontology", "OntClass", "ClassHierarchy", "RDFSReasoner",
    "ontology_from_graph", "ontology_to_graph",
    # text
    "SeparatorSegmenter", "NGramSegmenter", "TokenSegmenter",
    "CompositeSegmenter", "normalize_value", "segment_statistics",
    # core
    "SameAsLink", "TrainingSet", "ClassificationRule", "RuleSet",
    "RuleQualityMeasures", "ContingencyCounts", "LearnerConfig",
    "RuleLearner", "ClassPrediction", "RuleClassifier",
    "LinkingSubspace", "SubspaceReduction", "RuleGeneralizer",
    # linking
    "Record", "RecordStore", "StandardBlocking", "SortedNeighbourhood",
    "QGramBlocking", "CanopyBlocking", "RuleBasedBlocking", "FullIndex",
    "FieldComparator", "RecordComparator", "ThresholdMatcher",
    "FellegiSunterMatcher", "LinkingPipeline",
    "evaluate_blocking", "evaluate_matching",
    # engine
    "CachedRecordComparator", "EngineProgress", "EngineStats",
    "JobConfig", "LinkingJob",
    # datagen
    "CatalogConfig", "ElectronicCatalogGenerator",
    "Corruptor", "CorruptionConfig",
]
