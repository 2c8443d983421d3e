from .kg import tag_pages, kg_tables
from .checkpointed import run_kg_checkpointed

__all__ = ["tag_pages", "kg_tables", "run_kg_checkpointed"]
