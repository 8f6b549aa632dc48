"""repro — a reproduction of "Data Citation: A Computational Challenge" (PODS 2017).

The library implements the fine-grained, view-based data-citation model of
Davidson, Buneman, Deutch, Milo and Silvello together with every substrate it
relies on: an in-memory relational engine, conjunctive queries (parsing,
evaluation, containment, minimization), answering queries using views
(Bucket and MiniCon), provenance semirings, versioning for fixity, and an
RDF/ontology extension.

Quickstart
----------
>>> from repro import CitationEngine, parse_query
>>> from repro.workloads import gtopdb
>>> db = gtopdb.paper_instance()
>>> engine = CitationEngine(db, gtopdb.citation_views())
>>> result = engine.cite(parse_query(
...     "Q(FName) :- Family(FID, FName, Desc), FamilyIntro(FID, Text)"))
>>> print(result.citation.to_text())
"""

from repro.errors import (
    CitationError,
    IntegrityError,
    NoRewritingError,
    ParseError,
    QueryError,
    ReproError,
    RewritingError,
    SchemaError,
    VersionError,
)
from repro.relational import (
    Attribute,
    Database,
    DatabaseSchema,
    ForeignKey,
    Relation,
    RelationSchema,
)
from repro.query import (
    Atom,
    ConjunctiveQuery,
    Constant,
    Variable,
    evaluate,
    evaluate_with_bindings,
    is_contained_in,
    is_equivalent_to,
    minimize,
    parse_query,
    parse_sql,
)
from repro.rewriting import (
    BucketRewriter,
    MiniConRewriter,
    Rewriting,
    RewritingCostModel,
    View,
)
from repro.provenance import (
    BooleanSemiring,
    CountingSemiring,
    Polynomial,
    PolynomialSemiring,
    Semiring,
)
from repro.core import (
    Citation,
    CitationEngine,
    CitationPolicy,
    CitationRecord,
    CitationView,
    CitedResult,
    Combinators,
    DefaultCitationFunction,
    IncrementalCitationMaintainer,
    RewritingSelector,
)
from repro.versioning import CitationResolver, PersistentCitation, VersionedDatabase
from repro.core.engine import CitationPlan
from repro.observability import (
    JsonlSink,
    RingBufferSink,
    SlowQueryLog,
    Tracer,
    TraceSpan,
    get_tracer,
    render_trace,
    set_tracer,
    use_tracer,
)
from repro.service import (
    CitationService,
    ExplainReport,
    PlanCache,
    ServiceMetrics,
    canonical_key,
    fingerprint,
)
from repro.api import (
    BackendCapabilities,
    BackendRegistry,
    CitationBackend,
    CitationRequest,
    CitationResponse,
    RDFBackend,
    RelationalBackend,
    TemporalBackend,
    UnionBackend,
    VersionedBackend,
)

try:  # single-source the version from the installed package metadata
    from importlib.metadata import PackageNotFoundError, version as _dist_version

    __version__ = _dist_version("repro-data-citation")
except PackageNotFoundError:  # running from a source checkout (PYTHONPATH=src)
    __version__ = "1.1.0"

__all__ = [
    # errors
    "ReproError",
    "SchemaError",
    "IntegrityError",
    "QueryError",
    "ParseError",
    "RewritingError",
    "NoRewritingError",
    "CitationError",
    "VersionError",
    # relational
    "Attribute",
    "RelationSchema",
    "ForeignKey",
    "DatabaseSchema",
    "Relation",
    "Database",
    # queries
    "Variable",
    "Constant",
    "Atom",
    "ConjunctiveQuery",
    "parse_query",
    "parse_sql",
    "evaluate",
    "evaluate_with_bindings",
    "is_contained_in",
    "is_equivalent_to",
    "minimize",
    # rewriting
    "View",
    "Rewriting",
    "BucketRewriter",
    "MiniConRewriter",
    "RewritingCostModel",
    # provenance
    "Semiring",
    "BooleanSemiring",
    "CountingSemiring",
    "Polynomial",
    "PolynomialSemiring",
    # citation core
    "CitationRecord",
    "CitationView",
    "DefaultCitationFunction",
    "CitationPolicy",
    "Combinators",
    "CitationEngine",
    "CitedResult",
    "Citation",
    "RewritingSelector",
    "IncrementalCitationMaintainer",
    # fixity
    "VersionedDatabase",
    "PersistentCitation",
    "CitationResolver",
    # serving layer
    "CitationPlan",
    "CitationService",
    "ServiceMetrics",
    "PlanCache",
    "fingerprint",
    "canonical_key",
    # observability
    "Tracer",
    "TraceSpan",
    "get_tracer",
    "set_tracer",
    "use_tracer",
    "JsonlSink",
    "RingBufferSink",
    "SlowQueryLog",
    "render_trace",
    "ExplainReport",
    # unified citation API
    "CitationRequest",
    "CitationResponse",
    "CitationBackend",
    "BackendCapabilities",
    "BackendRegistry",
    "RelationalBackend",
    "UnionBackend",
    "TemporalBackend",
    "RDFBackend",
    "VersionedBackend",
    "__version__",
]
