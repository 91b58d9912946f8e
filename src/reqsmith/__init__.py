"""reqsmith: parse, refine, reason over, and lint requirements models.

The package is organized around a small description algebra (`model`), a
textual format for requirement models (`parser`) with its canonical
printer (`printer`), a set-theoretic evaluator and logic translation
(`semantics`), a structural subsumption and consistency engine
(`reasoner`), world saturation (`saturation`), fulfillment propagation
(`fulfillment`), the eight refinement operators (`operators`), graded
membership computation for quality regions (`membership`), findings and
the JSON report (`findings`), heuristic model linting (`lint`), OWL 2
serialization (`export`), and a command line front end (`cli`).
"""

__version__ = "0.1.0"
