"""A SUPERSEDE-style scenario: the paper's second, real-world demo case.

MDM "is the cornerstone of the Big Data architecture supporting the
[SUPERSEDE] project" (§2.5), which integrates *user feedback* and
*runtime monitoring* data about software products to drive evolution
decisions.  The proprietary project data is not available, so this module
synthesizes an equivalent ecosystem (same shape, same integration
challenges):

- **Twitter feedback API** (JSON, nested ``user`` objects) — tweets
  mentioning a software product;
- **App-review API** (JSON) — store reviews with ratings;
- **Monitoring platform** (CSV) — QoS metrics per product deployment;
- **Product catalog** (XML) — the software products under analysis.

The ontology: Feedback / Review / SoftwareProduct / Monitor(Metric)
concepts with identifier features; feedback and metrics link to products.
Two evolution rounds are scripted: the Twitter API nests author data
(v2), and the monitoring platform renames its metric fields (v2) — both
breaking, both accommodated through new wrappers and carried-over
mappings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict

from ..core.mdm import MDM
from ..core.walks import Walk
from ..obs import timed
from ..rdf.namespaces import Namespace
from ..sources.evolution import (
    EndpointVersion,
    NestFields,
    RenameField,
    release_version,
)
from ..sources.restapi import MockRestServer
from ..sources.wrappers import RestWrapper

__all__ = ["SupersedeScenario", "SUP"]

#: Vocabulary for the SUPERSEDE-style domain.
SUP = Namespace("http://www.essi.upc.edu/supersede/")

FEEDBACK = SUP.Feedback
REVIEW = SUP.Review
PRODUCT = SUP.SoftwareProduct
METRIC = SUP.QoSMetric

_PRODUCTS = [
    (1, "SmartTV-Player", "media"),
    (2, "CityWatch", "civic"),
    (3, "FeedbackHub", "devtools"),
    (4, "EnergyBoard", "iot"),
]

_SENTIMENTS = ["positive", "negative", "neutral"]
_METRIC_KINDS = ["latency_ms", "error_rate", "throughput_rps"]


def _generate_records(seed: int, n_feedback: int, n_reviews: int, n_metrics: int):
    rng = random.Random(seed)
    feedback = [
        {
            "id": 100 + i,
            "text": f"feedback item {100 + i}",
            "sentiment": rng.choice(_SENTIMENTS),
            "product_id": rng.choice(_PRODUCTS)[0],
            "user": {"id": 9000 + rng.randint(0, 40), "followers": rng.randint(0, 5000)},
        }
        for i in range(n_feedback)
    ]
    reviews = [
        {
            "id": 5000 + i,
            "stars": rng.randint(1, 5),
            "title": f"review {5000 + i}",
            "product_id": rng.choice(_PRODUCTS)[0],
        }
        for i in range(n_reviews)
    ]
    metrics = [
        {
            "id": 70000 + i,
            "kind": rng.choice(_METRIC_KINDS),
            "value": round(rng.uniform(0.1, 900.0), 3),
            "product_id": rng.choice(_PRODUCTS)[0],
        }
        for i in range(n_metrics)
    ]
    return feedback, reviews, metrics


@dataclass
class SupersedeScenario:
    """The assembled SUPERSEDE-style ecosystem."""

    server: MockRestServer
    mdm: MDM
    feedback_v1: EndpointVersion
    metrics_v1: EndpointVersion
    records: Dict[str, list] = field(default_factory=dict)

    @classmethod
    @timed("mdm_scenario_step_seconds", step="supersede_build")
    def build(
        cls,
        seed: int = 7,
        n_feedback: int = 60,
        n_reviews: int = 40,
        n_metrics: int = 80,
    ) -> "SupersedeScenario":
        """Assemble ontology, sources, wrappers and mappings."""
        feedback, reviews, metrics = _generate_records(
            seed, n_feedback, n_reviews, n_metrics
        )
        server = MockRestServer(base_url="http://supersede.local")
        feedback_v1 = EndpointVersion("feedback", 1, "json", lambda: feedback)
        release_version(server, feedback_v1)
        reviews_v1 = EndpointVersion("reviews", 1, "json", lambda: reviews)
        release_version(server, reviews_v1)
        metrics_v1 = EndpointVersion("metrics", 1, "csv", lambda: metrics)
        release_version(server, metrics_v1)
        products_v1 = EndpointVersion(
            "products",
            1,
            "xml",
            lambda: [
                {"id": pid, "name": name, "category": category}
                for pid, name, category in _PRODUCTS
            ],
        )
        release_version(server, products_v1, item_tag="product", root_tag="products")

        mdm = MDM()
        mdm.dataset.namespaces.bind("sup", SUP)
        for concept, label in (
            (FEEDBACK, "Feedback"),
            (REVIEW, "Review"),
            (PRODUCT, "SoftwareProduct"),
            (METRIC, "QoSMetric"),
        ):
            mdm.add_concept(concept, label)
        mdm.add_identifier(SUP.feedbackId, FEEDBACK)
        mdm.add_feature(SUP.text, FEEDBACK)
        mdm.add_feature(SUP.sentiment, FEEDBACK)
        mdm.add_feature(SUP.authorFollowers, FEEDBACK)
        mdm.add_identifier(SUP.reviewId, REVIEW)
        mdm.add_feature(SUP.stars, REVIEW)
        mdm.add_feature(SUP.reviewTitle, REVIEW)
        mdm.add_identifier(SUP.productId, PRODUCT)
        mdm.add_feature(SUP.productName, PRODUCT)
        mdm.add_feature(SUP.category, PRODUCT)
        mdm.add_identifier(SUP.metricId, METRIC)
        mdm.add_feature(SUP.metricKind, METRIC)
        mdm.add_feature(SUP.metricValue, METRIC)
        mdm.relate(FEEDBACK, SUP.about, PRODUCT)
        mdm.relate(REVIEW, SUP.reviews, PRODUCT)
        mdm.relate(METRIC, SUP.measures, PRODUCT)

        scenario = cls(
            server=server,
            mdm=mdm,
            feedback_v1=feedback_v1,
            metrics_v1=metrics_v1,
            records={"feedback": feedback, "reviews": reviews, "metrics": metrics},
        )
        scenario._register()
        return scenario

    def _register(self) -> None:
        mdm, server = self.mdm, self.server
        mdm.register_source("twitter", "Twitter feedback API")
        mdm.register_source("appstore", "App review API")
        mdm.register_source("monitoring", "Monitoring platform")
        mdm.register_source("catalog", "Product catalog")

        wf = RestWrapper(
            "wFeedback",
            ["id", "text", "sentiment", "followers", "productId"],
            server,
            "/v1/feedback",
            attribute_map={"followers": "user_followers", "productId": "product_id"},
        )
        mdm.register_wrapper("twitter", wf)
        mdm.define_mapping(
            "wFeedback",
            {
                "id": SUP.feedbackId,
                "text": SUP.text,
                "sentiment": SUP.sentiment,
                "followers": SUP.authorFollowers,
                "productId": SUP.productId,
            },
            edges=[(FEEDBACK, SUP.about, PRODUCT)],
        )

        wr = RestWrapper(
            "wReviews",
            ["id", "stars", "title", "productId"],
            server,
            "/v1/reviews",
            attribute_map={"productId": "product_id"},
        )
        mdm.register_wrapper("appstore", wr)
        mdm.define_mapping(
            "wReviews",
            {
                "id": SUP.reviewId,
                "stars": SUP.stars,
                "title": SUP.reviewTitle,
                "productId": SUP.productId,
            },
            edges=[(REVIEW, SUP.reviews, PRODUCT)],
        )

        wm = RestWrapper(
            "wMetrics",
            ["id", "kind", "value", "productId"],
            server,
            "/v1/metrics",
            attribute_map={"productId": "product_id"},
        )
        mdm.register_wrapper("monitoring", wm)
        mdm.define_mapping(
            "wMetrics",
            {
                "id": SUP.metricId,
                "kind": SUP.metricKind,
                "value": SUP.metricValue,
                "productId": SUP.productId,
            },
            edges=[(METRIC, SUP.measures, PRODUCT)],
        )

        wp = RestWrapper(
            "wProducts",
            ["id", "name", "category"],
            server,
            "/v1/products",
        )
        mdm.register_wrapper("catalog", wp)
        mdm.define_mapping(
            "wProducts",
            {"id": SUP.productId, "name": SUP.productName, "category": SUP.category},
        )

    # ------------------------------------------------------------------ #
    # canonical analytics walks
    # ------------------------------------------------------------------ #

    def walk_feedback_by_product(self) -> Walk:
        """Feedback sentiment alongside product names."""
        return self.mdm.walk_from_nodes(
            [FEEDBACK, SUP.sentiment, SUP.text, PRODUCT, SUP.productName]
        )

    def walk_metrics_by_product(self) -> Walk:
        """QoS metrics alongside product names."""
        return self.mdm.walk_from_nodes(
            [METRIC, SUP.metricKind, SUP.metricValue, PRODUCT, SUP.productName]
        )

    def walk_reviews(self) -> Walk:
        """Review stars per product category."""
        return self.mdm.walk_from_nodes(
            [REVIEW, SUP.stars, PRODUCT, SUP.category]
        )

    # ------------------------------------------------------------------ #
    # evolution rounds
    # ------------------------------------------------------------------ #

    TWITTER_V2_CHANGES = (
        RenameField("text", "body"),
        NestFields(("sentiment",), "analysis"),
    )

    @timed("mdm_scenario_step_seconds", step="release_twitter_v2")
    def release_twitter_v2(self, retire_v1: bool = False) -> RestWrapper:
        """Twitter API v2: renames ``text`` and nests the sentiment."""
        v2 = self.feedback_v1.successor(list(self.TWITTER_V2_CHANGES))
        release_version(self.server, v2, retire_previous=retire_v1)
        wf2 = RestWrapper(
            "wFeedback2",
            ["id", "text", "sentiment", "followers", "productId"],
            self.server,
            "/v2/feedback",
            attribute_map={
                "text": "body",
                "sentiment": "analysis_sentiment",
                "followers": "user_followers",
                "productId": "product_id",
            },
        )
        self.mdm.register_wrapper(
            "twitter",
            wf2,
            changes=[c.describe() for c in self.TWITTER_V2_CHANGES],
        )
        suggestion = self.mdm.suggest_mapping("wFeedback2")
        self.mdm.apply_suggestion(
            suggestion, extra_edges=[(FEEDBACK, SUP.about, PRODUCT)]
        )
        return wf2

    MONITORING_V2_CHANGES = (
        RenameField("kind", "metric_type"),
        RenameField("value", "reading"),
    )

    @timed("mdm_scenario_step_seconds", step="release_monitoring_v2")
    def release_monitoring_v2(self, retire_v1: bool = False) -> RestWrapper:
        """Monitoring v2: renames the metric fields."""
        v2 = self.metrics_v1.successor(list(self.MONITORING_V2_CHANGES))
        release_version(self.server, v2, retire_previous=retire_v1)
        wm2 = RestWrapper(
            "wMetrics2",
            ["id", "kind", "value", "productId"],
            self.server,
            "/v2/metrics",
            attribute_map={
                "kind": "metric_type",
                "value": "reading",
                "productId": "product_id",
            },
        )
        self.mdm.register_wrapper(
            "monitoring",
            wm2,
            changes=[c.describe() for c in self.MONITORING_V2_CHANGES],
        )
        suggestion = self.mdm.suggest_mapping("wMetrics2")
        self.mdm.apply_suggestion(
            suggestion, extra_edges=[(METRIC, SUP.measures, PRODUCT)]
        )
        return wm2
