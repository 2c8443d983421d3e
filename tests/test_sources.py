"""File-source dispatch (SURVEY.md §2.1 S5) and preview builder (M9) tests."""

import pyarrow as pa
import pytest


def test_parse_files_batch_dispatch():
    from ner_backend_ray.sources.files import parse_files_batch
    batch = pa.table({
        "path": ["a.txt", "b.HTML", "c.pdf", "d.exe", "e.json"],
        "bytes": [b"hello", b"<p>x</p>", b"%PDF-1.4", b"\x00\x01", b"{}"],
    })
    out = parse_files_batch(batch)
    got = dict(zip(out["path"].to_pylist(), out["status"].to_pylist()))
    assert got == {"a.txt": "succeeded", "b.HTML": "succeeded", "c.pdf": "failed",
                   "d.exe": "skipped", "e.json": "succeeded"}
    texts = dict(zip(out["path"].to_pylist(), out["text"].to_pylist()))
    assert texts["a.txt"] == "hello"          # identity extraction (parser.go:98-122)
    assert texts["b.HTML"] == "<p>x</p>"      # no tag stripping
    assert texts["d.exe"] == ""


def test_read_raw_files_and_counters(ray_session, tmp_path):
    from ner_backend_ray.sources.files import read_raw_files
    (tmp_path / "x.txt").write_bytes(b"alpha beta")
    (tmp_path / "y.csv").write_bytes(b"a,b\n1,2")
    (tmp_path / "z.bin").write_bytes(b"\xff")
    ds = read_raw_files(str(tmp_path))
    counts = {r["status"]: r["count()"] for r in ds.groupby("status").count().take_all()}
    assert counts == {"succeeded": 2, "skipped": 1}


def test_truncate_tokens_exact():
    from ner_backend_ray.ops.preview import truncate_tokens
    text = b"one two  three\nfour five"
    assert truncate_tokens(text, 3) == b"one two  three"
    assert truncate_tokens(text, 10) == text
    assert truncate_tokens(b"", 5) == b""


def test_preview_docs_tags(ray_session):
    import ray.data
    from ner_backend_ray.ops.preview import PreviewDocs
    rows = [{"url": "1", "text": "spark is fast and spark scales with join power"}]
    ds = ray.data.from_items(rows)
    out = ds.map_batches(PreviewDocs,
                         fn_constructor_kwargs=dict(
                             model_type="regex",
                             model_kwargs={"patterns": {"SPARKW": r"\bspark\b",
                                                        "JOINW": r"\bjoin\b"}},
                             text_column="text"),
                         batch_format="pyarrow", concurrency=1).take_all()
    tokens, tags = out[0]["tokens"], out[0]["tags"]
    assert tokens == ["spark", "is", "fast", "and", "spark", "scales", "with",
                      "join", "power"]
    assert tags == ["SPARKW", "O", "O", "O", "SPARKW", "O", "O", "JOINW", "O"]


# ------------------------------- PDF parsing -------------------------------

def _make_pdf(pages, compress=True):
    """Minimal valid PDF writer (classic xref, optional Flate content)."""
    import zlib
    objs = {}
    n_pages = len(pages)
    kids = " ".join(f"{3 + 2 * i} 0 R" for i in range(n_pages))
    objs[1] = b"<< /Type /Catalog /Pages 2 0 R >>"
    objs[2] = f"<< /Type /Pages /Kids [{kids}] /Count {n_pages} >>".encode()
    font = 3 + 2 * n_pages
    for i, text in enumerate(pages):
        pnum, cnum = 3 + 2 * i, 4 + 2 * i
        objs[pnum] = (f"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
                      f"/Contents {cnum} 0 R /Resources << /Font << /F1 {font} 0 R"
                      f" >> >> >>").encode()
        ops = ["BT", "/F1 12 Tf", "72 720 Td"]
        for j, line in enumerate(text.split("\n")):
            if j:
                ops.append("0 -14 Td")
            esc = (line.replace("\\", r"\\").replace("(", r"\(")
                   .replace(")", r"\)"))
            ops.append(f"({esc}) Tj")
        ops.append("ET")
        content = "\n".join(ops).encode("latin-1")
        if compress:
            comp = zlib.compress(content)
            objs[cnum] = (f"<< /Length {len(comp)} /Filter /FlateDecode >>".encode()
                          + b"\nstream\n" + comp + b"\nendstream")
        else:
            objs[cnum] = (f"<< /Length {len(content)} >>".encode()
                          + b"\nstream\n" + content + b"\nendstream")
    objs[font] = b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>"
    out = bytearray(b"%PDF-1.4\n")
    offsets = {}
    for num in sorted(objs):
        offsets[num] = len(out)
        out += f"{num} 0 obj\n".encode() + objs[num] + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {max(objs) + 1}\n".encode() + b"0000000000 65535 f \n"
    for num in sorted(objs):
        out += f"{offsets[num]:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {max(objs) + 1} /Root 1 0 R >>\n"
            f"startxref\n{xref_pos}\n%%EOF\n").encode()
    return bytes(out)


def test_pdf_extract_multipage_flate():
    from ner_backend_ray.sources.pdf import extract_pdf_text
    pages = ["Hello World\nSecond line with (parens) and \\ backslash",
             "Page two text here"]
    # pages joined with \n\n (parser.go:90)
    assert extract_pdf_text(_make_pdf(pages)) == "\n\n".join(pages)
    assert extract_pdf_text(_make_pdf(["plain"], compress=False)) == "plain"


def test_pdf_extract_tj_array_and_hex():
    import zlib
    from ner_backend_ray.sources.pdf import extract_pdf_text
    # hand-built content stream: TJ array with kern-space + hex string
    content = b"BT /F1 12 Tf 72 720 Td [(Hel) -20 (lo) -500 (world)] TJ " \
              b"0 -14 Td <48495821> Tj ET"
    pdf = _make_pdf(["placeholder"])
    comp = zlib.compress(content)
    import re
    repl = (b"4 0 obj\n<< /Length " + str(len(comp)).encode()
            + b" /Filter /FlateDecode >>\nstream\n" + comp
            + b"\nendstream\nendobj")
    pdf = re.sub(rb"4 0 obj\n.*?endobj", lambda _: repl, pdf, count=1, flags=re.S)
    assert extract_pdf_text(pdf) == "Hello world\nHIX!"


def test_pdf_dispatch_succeeds_and_fails():
    from ner_backend_ray.sources.files import parse_files_batch
    good = _make_pdf(["real pdf content"])
    batch = pa.table({"path": ["good.pdf", "corrupt.pdf"],
                      "bytes": [good, b"%PDF-1.4 garbage no objects"]})
    out = parse_files_batch(batch)
    got = dict(zip(out["path"].to_pylist(), out["status"].to_pylist()))
    assert got == {"good.pdf": "succeeded", "corrupt.pdf": "failed"}
    texts = dict(zip(out["path"].to_pylist(), out["text"].to_pylist()))
    assert texts["good.pdf"] == "real pdf content"


# ------------------------------- LZW / encryption -------------------------------

def _lzw_encode(data: bytes) -> bytes:
    """Test-side PDF LZW encoder (EarlyChange=1, MSB-first). Width bumps track
    the DECODER's table growth (which lags the encoder's by one code), so the
    streams stay bit-synchronized."""
    table = {bytes([i]): i for i in range(256)}
    next_code, width = 258, 9
    out = bytearray()
    buf = nbits = 0
    emitted = 0

    def emit(code):
        nonlocal buf, nbits, emitted, width
        buf = (buf << width) | code
        nbits += width
        while nbits >= 8:
            nbits -= 8
            out.append((buf >> nbits) & 0xFF)

    emit(256)  # clear table
    w = b""
    for ch in data:
        c = bytes([ch])
        if w + c in table:
            w += c
            continue
        emit(table[w])
        emitted += 1
        table[w + c] = next_code
        next_code += 1
        # decoder has 258 + (emitted - 1) entries after reading this code
        if 258 + (emitted - 1) == (1 << width) - 1 and width < 12:
            width += 1
        if next_code == (1 << 12) - 1:  # table full: clear, like real writers
            emit(256)
            table = {bytes([i]): i for i in range(256)}
            next_code, width, emitted = 258, 9, 0
        w = c
    if w:
        emit(table[w])
        emitted += 1
        if 258 + (emitted - 1) == (1 << width) - 1 and width < 12:
            width += 1
    emit(257)  # EOD
    if nbits:
        out.append((buf << (8 - nbits)) & 0xFF)
    return bytes(out)


def test_lzw_decode_spec_vector():
    """ISO 32000-1 §7.4.4.3 example: 45 45 45 45 45 65 45 45 45 66 encodes to
    80 0B 60 50 22 0C 0C 85 01."""
    from ner_backend_ray.sources.pdf import _lzw_decode
    enc = bytes.fromhex("800B6050220C0C8501")
    assert _lzw_decode(enc) == bytes([45, 45, 45, 45, 45, 65, 45, 45, 45, 66])


def test_lzw_roundtrip_across_width_bumps():
    from ner_backend_ray.sources.pdf import _lzw_decode
    import random
    rng = random.Random(7)
    # enough distinct bigrams to push the table past the 9->10->11 bit bumps
    data = bytes(rng.randrange(256) for _ in range(8000))
    assert _lzw_decode(_lzw_encode(data)) == data
    assert _lzw_decode(_lzw_encode(b"")) == b""
    assert _lzw_decode(_lzw_encode(b"aaaaaaaaaaaaaaaa")) == b"a" * 16


def test_pdf_extract_lzw_content_stream():
    from ner_backend_ray.sources.pdf import extract_pdf_text
    pdf = _make_pdf(["LZW page text"])
    # recompress object 4's Flate content stream as LZWDecode
    import re as _re
    import zlib
    m = _re.search(rb"4 0 obj\n<< /Length \d+ /Filter /FlateDecode >>\n"
                   rb"stream\n(.*?)\nendstream", pdf, _re.S)
    content = zlib.decompress(m.group(1))
    lzw = _lzw_encode(content)
    repl = (b"4 0 obj\n<< /Length " + str(len(lzw)).encode()
            + b" /Filter /LZWDecode >>\nstream\n" + lzw
            + b"\nendstream\nendobj\n")
    pdf = _re.sub(rb"4 0 obj\n.*?endobj\n", lambda _: repl, pdf, count=1,
                  flags=_re.S)
    assert extract_pdf_text(pdf) == "LZW page text"


def test_encrypted_pdf_skipped():
    from ner_backend_ray.sources.files import parse_files_batch
    from ner_backend_ray.sources.pdf import EncryptedPdfError, extract_pdf_text
    pdf = _make_pdf(["secret"])
    enc = pdf.replace(b"/Root 1 0 R", b"/Root 1 0 R /Encrypt 9 0 R")
    import pytest
    with pytest.raises(EncryptedPdfError):
        extract_pdf_text(enc)
    batch = pa.table({"path": ["enc.pdf", "ok.pdf"],
                      "bytes": [enc, pdf]})
    got = parse_files_batch(batch).to_pydict()
    by_path = dict(zip(got["path"], got["status"]))
    assert by_path == {"enc.pdf": "skipped", "ok.pdf": "succeeded"}



def test_encrypt_text_in_content_stream_still_extracts():
    """/Encrypt only counts inside a trailer or XRef-stream dictionary; the
    same bytes as page text do not mark the file encrypted."""
    from ner_backend_ray.sources.pdf import extract_pdf_text
    pdf = _make_pdf(["see /Encrypt 5 0 R here"], compress=False)
    assert b"/Encrypt 5 0 R" in pdf
    assert extract_pdf_text(pdf) == "see /Encrypt 5 0 R here"


@pytest.mark.parametrize("where", ["trailer_inline", "xref_stream"])
def test_encrypt_inline_trailer_or_xref_stream_raises(where):
    from ner_backend_ray.sources.pdf import EncryptedPdfError, extract_pdf_text
    pdf = _make_pdf(["secret"])
    if where == "trailer_inline":
        enc = pdf.replace(b"/Root 1 0 R", b"/Root 1 0 R /Encrypt << /Filter "
                          b"/Standard /V 2 /R 3 /O <00> /U <00> /P -4 >>")
    else:
        xref = (b"99 0 obj\n<< /Type /XRef /Size 100 /W [1 2 1] /Root 1 0 R"
                b" /Encrypt 9 0 R /Length 0 >>\nstream\n\nendstream\nendobj\n")
        enc = pdf.replace(b"xref\n", xref + b"xref\n", 1)
    with pytest.raises(EncryptedPdfError):
        extract_pdf_text(enc)

def _swap_content_stream(pdf, head, payload):
    """Replace object 4's content stream (dict head + raw bytes) in a
    one-page _make_pdf document."""
    import re as _re
    repl = (b"4 0 obj\n" + head + b"\nstream\n" + payload
            + b"\nendstream\nendobj\n")
    return _re.sub(rb"4 0 obj\n.*?endobj\n", lambda _: repl, pdf, count=1,
                   flags=_re.S)


def test_pdf_filter_primitives():
    from ner_backend_ray.sources.pdf import (_ascii85_decode, _asciihex_decode,
                                             _runlength_decode)
    import base64
    # spec semantics: whitespace ignored, '>' EOD, odd digit padded with 0
    assert _asciihex_decode(b"48 65 6C6C 6F7>garbage") == b"Hellop"
    # roundtrip vs stdlib adobe framing, plus the 'z' zero-group shorthand
    data = b"Some binary \x00\x01\xfe payload for ascii85!" + b"\0" * 8
    framed = base64.a85encode(data, adobe=True)  # b"<~...~>"
    assert _ascii85_decode(framed) == data
    assert _ascii85_decode(framed[2:]) == data  # PDF omits the leading <~
    assert _ascii85_decode(b"z~>") == b"\0\0\0\0"
    # RunLength: 2 literal bytes, run of 4 'x', EOD marker ends decode
    rle = bytes([1]) + b"ab" + bytes([253]) + b"x" + bytes([128]) + b"ignored"
    assert _runlength_decode(rle) == b"abxxxx"


def test_pdf_filter_chain_ascii85_flate():
    """/Filter [/ASCII85Decode /FlateDecode]: decode order is array order."""
    import base64
    import zlib
    from ner_backend_ray.sources.pdf import extract_pdf_text
    pdf = _make_pdf(["chained filters page"])
    import re as _re
    m = _re.search(rb"4 0 obj\n<< /Length \d+ /Filter /FlateDecode >>\n"
                   rb"stream\n(.*?)\nendstream", pdf, _re.S)
    content = zlib.decompress(m.group(1))
    payload = base64.a85encode(zlib.compress(content), adobe=True)[2:]
    head = (b"<< /Length " + str(len(payload)).encode()
            + b" /Filter [/ASCII85Decode /FlateDecode] >>")
    assert extract_pdf_text(_swap_content_stream(pdf, head, payload)) \
        == "chained filters page"


def test_pdf_runlength_content_stream():
    from ner_backend_ray.sources.pdf import extract_pdf_text
    import re as _re
    import zlib
    pdf = _make_pdf(["run length page"])
    m = _re.search(rb"4 0 obj\n<< /Length \d+ /Filter /FlateDecode >>\n"
                   rb"stream\n(.*?)\nendstream", pdf, _re.S)
    content = zlib.decompress(m.group(1))
    # literal-only RLE encoding in <=128-byte chunks
    payload = b"".join(bytes([len(c) - 1]) + c
                       for c in (content[i:i + 128]
                                 for i in range(0, len(content), 128)))
    payload += bytes([128])
    head = (b"<< /Length " + str(len(payload)).encode()
            + b" /Filter /RunLengthDecode >>")
    assert extract_pdf_text(_swap_content_stream(pdf, head, payload)) \
        == "run length page"


def _png_predict(data, columns, bpp=1):
    """Test-side PNG predictor encoder cycling filter types 0-4 per row."""
    rows = [bytearray(data[i:i + columns]) for i in range(0, len(data), columns)]
    out = bytearray()
    prev = bytearray(columns)
    for r, row in enumerate(rows):
        ft = r % 5
        enc = bytearray(row)
        for j in range(len(row)):
            a = row[j - bpp] if j >= bpp else 0
            b = prev[j] if j < len(prev) else 0
            c = prev[j - bpp] if bpp <= j < len(prev) + bpp else 0
            if ft == 1:
                enc[j] = (row[j] - a) & 0xFF
            elif ft == 2:
                enc[j] = (row[j] - b) & 0xFF
            elif ft == 3:
                enc[j] = (row[j] - (a + b) // 2) & 0xFF
            elif ft == 4:
                p = a + b - c
                pa_, pb, pc_ = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa_ <= pb and pa_ <= pc_ else (b if pb <= pc_ else c)
                enc[j] = (row[j] - pred) & 0xFF
        out += bytes([ft]) + enc
        prev = row
    return bytes(out)


def test_pdf_flate_png_predictor():
    """Flate + /DecodeParms << /Predictor 12 /Columns N >> (all 5 PNG row
    filter types exercised via the cycling test encoder)."""
    import zlib
    import re as _re
    from ner_backend_ray.sources.pdf import _unpredict, extract_pdf_text
    import random
    rng = random.Random(3)
    blob = bytes(rng.randrange(256) for _ in range(1000))
    assert _unpredict(_png_predict(blob, 16), 12, 1, 8, 16) == blob
    assert _unpredict(_png_predict(blob, 7), 15, 1, 8, 7) == blob  # partial row
    pdf = _make_pdf(["predictor page"])
    m = _re.search(rb"4 0 obj\n<< /Length \d+ /Filter /FlateDecode >>\n"
                   rb"stream\n(.*?)\nendstream", pdf, _re.S)
    content = zlib.decompress(m.group(1))
    payload = zlib.compress(_png_predict(content, 24))
    head = (b"<< /Length " + str(len(payload)).encode()
            + b" /Filter /FlateDecode"
            + b" /DecodeParms << /Predictor 12 /Columns 24 >> >>")
    assert extract_pdf_text(_swap_content_stream(pdf, head, payload)) \
        == "predictor page"


def test_pdf_tiff_predictor_roundtrip():
    from ner_backend_ray.sources.pdf import _unpredict
    import random
    rng = random.Random(5)
    blob = bytes(rng.randrange(256) for _ in range(96))
    rowlen, bpp = 12, 3  # Colors=3, 8-bit
    enc = bytearray(blob)
    for r in range(0, len(enc), rowlen):
        for i in range(min(r + rowlen, len(enc)) - 1, r + bpp - 1, -1):
            enc[i] = (blob[i] - blob[i - bpp]) & 0xFF
    assert _unpredict(bytes(enc), 2, 3, 8, 4) == blob


def _make_cid_pdf():
    """One-page PDF with a Type0 font carrying a /ToUnicode CMap (F1) plus a
    simple font (F2), classic xref."""
    import zlib
    cmap = (b"/CIDInit /ProcSet findresource begin\n"
            b"begincmap\n"
            b"1 begincodespacerange <0000> <FFFF> endcodespacerange\n"
            b"4 beginbfchar\n"
            b"<0001> <0048>\n"    # H
            b"<0002> <00E9>\n"    # e-acute
            b"<0003> <006F>\n"    # o
            b"<0004> <0020>\n"    # space
            b"endbfchar\n"
            b"1 beginbfrange\n"
            b"<0010> <0012> <006C>\n"   # l, m, n (incrementing base)
            b"endbfrange\n"
            b"1 beginbfrange\n"
            b"<0020> <0021> [<0057006F> <0072006C0064>]\n"  # "Wo", "rld"
            b"endbfrange\n"
            b"endcmap\n")
    comp = zlib.compress(cmap)
    content = (b"BT /F1 12 Tf\n"
               b"<000100020010 00100003 0004> Tj\n"   # "He!llo " (e-acute)
               b"<00200021> Tj\n"                      # "World"
               b"<0099> Tj\n"                          # unmapped code
               b"/F2 12 Tf (!) Tj\nET")
    objs = {
        1: b"<< /Type /Catalog /Pages 2 0 R >>",
        2: b"<< /Type /Pages /Kids [3 0 R] /Count 1 >>",
        3: (b"<< /Type /Page /Parent 2 0 R /MediaBox [0 0 612 792] "
            b"/Contents 4 0 R /Resources << /Font << /F1 5 0 R /F2 6 0 R >>"
            b" /ProcSet [/PDF /Text] >> >>"),
        4: (b"<< /Length " + str(len(content)).encode() + b" >>\nstream\n"
            + content + b"\nendstream"),
        5: (b"<< /Type /Font /Subtype /Type0 /BaseFont /Noto "
            b"/Encoding /Identity-H /ToUnicode 7 0 R >>"),
        6: b"<< /Type /Font /Subtype /Type1 /BaseFont /Helvetica >>",
        7: (b"<< /Length " + str(len(comp)).encode()
            + b" /Filter /FlateDecode >>\nstream\n" + comp + b"\nendstream"),
    }
    out = bytearray(b"%PDF-1.5\n")
    offsets = {}
    for num in sorted(objs):
        offsets[num] = len(out)
        out += f"{num} 0 obj\n".encode() + objs[num] + b"\nendobj\n"
    xref_pos = len(out)
    out += f"xref\n0 {max(objs) + 1}\n".encode() + b"0000000000 65535 f \n"
    for num in sorted(objs):
        out += f"{offsets[num]:010d} 00000 n \n".encode()
    out += (f"trailer\n<< /Size {max(objs) + 1} /Root 1 0 R >>\n"
            f"startxref\n{xref_pos}\n%%EOF\n").encode()
    return bytes(out)


def test_pdf_tounicode_cid_font():
    """Type0 text decodes through the ToUnicode CMap: bfchar, incrementing
    bfrange, array bfrange with multi-code-unit destinations, unmapped code →
    U+FFFD; Tf back to the simple font restores latin-1."""
    from ner_backend_ray.sources.pdf import extract_pdf_text
    assert extract_pdf_text(_make_cid_pdf()) == "Héllo World�!"


def test_pdf_parse_cmap_forms():
    from ner_backend_ray.sources.pdf import _parse_cmap
    nbytes, cmap = _parse_cmap(
        b"1 begincodespacerange <00> <FF> endcodespacerange\n"
        b"1 beginbfchar <41> <0041> endbfchar\n"
        b"1 beginbfrange <61> <63> <0078> endbfrange\n")
    assert nbytes == 1
    assert cmap == {0x41: "A", 0x61: "x", 0x62: "y", 0x63: "z"}
