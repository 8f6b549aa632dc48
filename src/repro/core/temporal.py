"""Citation evolution with timestamped relations (paper, Section 3).

"This can be captured in our model by including a 'timestamp' attribute in
base relations, with lambda variables in views corresponding to this
attribute.  Citations could then depend on the timestamp."

This module provides exactly that construction:

* :func:`timestamped_schema` — extend a relation schema with a ``ValidFrom``
  attribute,
* :func:`timestamp_view` — turn an existing citation view into one whose
  λ-parameters additionally include the timestamp attribute of a chosen
  base relation, so that tuples contributed in different eras get different
  citations (e.g. different curator cohorts),
* :class:`TemporalCitationEngine` — a thin wrapper that rewrites queries over
  the timestamped views and exposes "cite as of era X" convenience methods.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.core.citation_view import CitationView, DefaultCitationFunction
from repro.core.engine import CitationEngine, CitedResult
from repro.core.policy import CitationPolicy
from repro.errors import SchemaError
from repro.query.ast import Atom, ConjunctiveQuery, Constant, Variable
from repro.query.parser import parse_query
from repro.relational.database import Database
from repro.relational.schema import Attribute, DatabaseSchema, RelationSchema

#: Default name of the timestamp attribute added to base relations.
TIMESTAMP_ATTRIBUTE = "ValidFrom"


def timestamped_schema(
    schema: RelationSchema, attribute: str = TIMESTAMP_ATTRIBUTE
) -> RelationSchema:
    """Extend *schema* with a trailing timestamp attribute."""
    if schema.has_attribute(attribute):
        return schema
    return RelationSchema(
        schema.name,
        list(schema.attributes) + [Attribute(attribute, object)],
        key=schema.key,
    )


def timestamped_database_schema(
    schema: DatabaseSchema,
    relations: Iterable[str] | None = None,
    attribute: str = TIMESTAMP_ATTRIBUTE,
) -> DatabaseSchema:
    """Extend selected relations of a database schema with a timestamp attribute."""
    targets = set(relations) if relations is not None else set(schema.relation_names)
    extended = []
    for relation_schema in schema:
        if relation_schema.name in targets:
            extended.append(timestamped_schema(relation_schema, attribute))
        else:
            extended.append(relation_schema)
    return DatabaseSchema(extended, schema.foreign_keys)


def add_timestamps(
    source: Database,
    timestamps: dict[str, object] | object,
    relations: Iterable[str] | None = None,
    attribute: str = TIMESTAMP_ATTRIBUTE,
) -> Database:
    """Copy *source* into a timestamped schema, stamping every row.

    ``timestamps`` is either a single value applied to every row or a mapping
    from relation name to the value used for that relation's rows.
    """
    schema = timestamped_database_schema(source.schema, relations, attribute)
    target = Database(schema, enforce_foreign_keys=False)
    targets = set(relations) if relations is not None else set(source.schema.relation_names)
    for relation in source.relations():
        name = relation.schema.name
        if isinstance(timestamps, dict):
            stamp = timestamps.get(name)
        else:
            stamp = timestamps
        for row in relation:
            if name in targets:
                target.insert(name, row + (stamp,))
            else:
                target.insert(name, row)
    target.enforce_foreign_keys = True
    return target


def timestamp_view(
    base_relation: str,
    schema: DatabaseSchema,
    name: str | None = None,
    extra_parameters: Sequence[str] = (),
    citation_constants: dict[str, object] | None = None,
    attribute: str = TIMESTAMP_ATTRIBUTE,
) -> CitationView:
    """Build a citation view over *base_relation* parameterized by its timestamp.

    The view exposes every attribute of the relation and declares the
    timestamp attribute (plus any *extra_parameters*) as λ-parameters, so
    tuples with different timestamps receive different citations — the
    paper's "citations could then depend on the timestamp".
    """
    relation_schema = schema.relation(base_relation)
    if not relation_schema.has_attribute(attribute):
        raise SchemaError(
            f"relation {base_relation!r} has no timestamp attribute {attribute!r}; "
            "extend the schema with timestamped_database_schema() first"
        )
    variables = tuple(Variable(a) for a in relation_schema.attribute_names)
    head = Atom(name or f"T_{base_relation}", variables)
    body = (Atom(base_relation, variables),)
    parameters = tuple(
        Variable(p) for p in (attribute, *extra_parameters)
    )
    view_query = ConjunctiveQuery(head, body, (), parameters)
    citation_query = ConjunctiveQuery(
        Atom(f"CT_{base_relation}", variables), body, (), parameters
    )
    return CitationView(
        view_query,
        citation_queries=[citation_query],
        citation_function=DefaultCitationFunction(
            constants=dict(citation_constants or {"unit": base_relation}),
            field_map={attribute: "timestamp"},
        ),
        description=f"timestamp-parameterized view over {base_relation}",
    )


class TemporalCitationEngine:
    """Citation engine over timestamp-parameterized views.

    Wraps an ordinary :class:`CitationEngine` whose views include timestamp
    parameters and adds convenience methods for era-restricted citation.
    """

    def __init__(
        self,
        database: Database,
        citation_views: Sequence[CitationView],
        policy: CitationPolicy | None = None,
        attribute: str = TIMESTAMP_ATTRIBUTE,
    ) -> None:
        self.attribute = attribute
        self.engine = CitationEngine(
            database, citation_views, policy=policy or CitationPolicy.union_everywhere()
        )

    def cite(self, query: ConjunctiveQuery | str) -> CitedResult:
        """Cite a query; citations carry the timestamps of the contributing tuples."""
        return self.engine.cite(query)

    def eras_cited(self, query: ConjunctiveQuery | str) -> set[object]:
        """The distinct timestamp values appearing in the query's citation."""
        result = self.engine.cite(query)
        eras: set[object] = set()
        for record in result.citation.records:
            if "timestamp" in record:
                value = record["timestamp"]
                if isinstance(value, tuple):
                    eras.update(value)
                else:
                    eras.add(value)
            parameters = dict(record.get("parameters", ()))
            if self.attribute in parameters:
                eras.add(parameters[self.attribute])
        return eras

    def restrict_to_era(
        self, query: ConjunctiveQuery | str, era: object
    ) -> ConjunctiveQuery:
        """*query* with every timestamped atom's timestamp bound to *era*.

        The query must mention the timestamped base relations directly; each
        atom over a relation that carries the timestamp attribute gets that
        position bound to *era*.  The restricted query is an ordinary
        conjunctive query, so it flows through the plan/result caches of the
        serving layer like any other (the era constant participates in the
        structural fingerprint).
        """
        if isinstance(query, str):
            query = parse_query(query)
        new_body = []
        for atom in query.body:
            if atom.predicate in self.engine.database.schema.relation_names:
                relation_schema = self.engine.database.relation_schema(atom.predicate)
                if relation_schema.has_attribute(self.attribute):
                    position = relation_schema.position(self.attribute)
                    terms = list(atom.terms)
                    terms[position] = Constant(era)
                    new_body.append(Atom(atom.predicate, tuple(terms)))
                    continue
            new_body.append(atom)
        return ConjunctiveQuery(query.head, tuple(new_body), query.equalities)

    def cite_as_of(self, query: ConjunctiveQuery | str, era: object) -> CitedResult:
        """Cite only the data stamped with *era* (adds the timestamp constant).

        One-shot convenience over :meth:`restrict_to_era` — prefer
        :meth:`repro.service.CitationService.submit` with the ``"temporal"``
        backend for serving workloads, which caches the compiled plans.
        """
        return self.engine.cite(self.restrict_to_era(query, era))
