"""Large-scale training-data operations over generic document/embedding tables:
deduplication (exact, MinHash-LSH, SimHash, n-gram Jaccard, embedding cosine),
similarity search (brute-force + LSH-bucketed ANN), text analysis (lang-id,
quality, token counts, fingerprints), windowed aggregates and distributed
joins."""
