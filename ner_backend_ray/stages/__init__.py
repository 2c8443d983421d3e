from .extract import extract_text_batch
from .tag import TagDocs
from .link import normalize_surface, surface_entity_key
from .triples import extract_triples_from_doc, TripleRules

__all__ = [
    "extract_text_batch", "TagDocs", "normalize_surface", "surface_entity_key",
    "extract_triples_from_doc", "TripleRules",
]
