from .extract import extract_text_batch
from .tag import TagDocs, explode_mentions, explode_groups, explode_triples
from .link import normalize_surface, surface_entity_key
from .triples import extract_triples_from_doc, TripleRules

__all__ = [
    "extract_text_batch", "TagDocs", "explode_mentions", "explode_groups",
    "explode_triples", "normalize_surface", "surface_entity_key",
    "extract_triples_from_doc", "TripleRules",
]
