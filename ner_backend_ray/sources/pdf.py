"""Minimal pure-Python PDF text extraction (no external libraries).

Fills the reference's ``parsePdf`` slot (internal/storage/parser.go:57-96,
go-fitz there): pages are extracted in page-tree order and joined with
``"\\n\\n"`` exactly like parser.go:90; the 512 MB cap is enforced by the
caller (sources/files.py).

Scope — built from the public PDF 1.7 spec (ISO 32000-1):

- classic cross-reference PDFs whose objects appear as ``N G obj … endobj``
  in the byte stream, plus objects inside /ObjStm object streams
  (FlateDecoded and re-scanned);
- content streams stored raw or through a filter CHAIN of /FlateDecode
  (zlib), /LZWDecode (spec §7.4.4, EarlyChange=1 default; EarlyChange 0
  streams are treated as unsupported), /ASCIIHexDecode, /ASCII85Decode and
  /RunLengthDecode, with /DecodeParms PNG predictors 10-15 and TIFF
  predictor 2 applied after Flate/LZW (spec §7.4.4.4) — image-only filters
  (DCT, CCITT, JBIG2, JPX) stay unsupported and yield no text;
- encrypted PDFs (/Encrypt in the trailer) raise :class:`EncryptedPdfError`
  so the dispatcher can route them to the skipped counter, mirroring the
  reference's unsupported-type skip (processor.go:321-328);
- text shown via ``Tj``, ``'``, ``"`` and ``TJ`` with literal ``(…)`` (all
  escape forms) and hex ``<…>`` strings, simple byte encodings (Standard /
  WinAnsi — decoded latin-1). CID/Type0 composite fonts are decoded through
  their /ToUnicode CMap (bfchar + bfrange, spec §9.10.3) when present —
  ``Tf`` switches the active map per text run; fonts without a CMap still
  extract as best-effort latin-1 bytes.

That covers machine-generated report/invoice-style PDFs — the dominant kind
in a web crawl — and everything the test writer produces. Line structure:
``Td/TD`` with a vertical component, ``T*`` and large negative ``TJ`` kerns
map to newline/space, the same heuristics public extractors (pdfminer,
MuPDF's text device) use.
"""

from __future__ import annotations

import re
import zlib

_OBJ_RE = re.compile(rb"(\d+)\s+(\d+)\s+obj(.*?)endobj", re.S)
_STREAM_RE = re.compile(rb"stream\r?\n(.*?)\r?\nendstream", re.S)
_REF_RE = re.compile(rb"(\d+)\s+\d+\s+R")
_DICT_DELIM_RE = re.compile(rb"<<|>>")
_TRAILER_RE = re.compile(rb"\btrailer\s*(?=<<)")
_OBJ_DICT_RE = re.compile(rb"\d+\s+\d+\s+obj\s*(?=<<)")
_XREF_TYPE_RE = re.compile(rb"/Type\s*/XRef\b")
_ENCRYPT_RE = re.compile(rb"/Encrypt\s*(?:\d+\s+\d+\s+R|<<)")


class EncryptedPdfError(ValueError):
    """The PDF trailer carries /Encrypt — key handling is out of scope, so the
    file is reported distinctly for the dispatcher's skipped counter."""


def _lzw_decode(raw: bytes) -> bytes:
    """PDF LZWDecode (ISO 32000-1 §7.4.4): MSB-first variable-width codes
    (9→12 bits), 256 = clear-table, 257 = EOD, EarlyChange=1 (the width
    grows one code early, as every known writer emits)."""
    base = [bytes([i]) for i in range(256)] + [b"", b""]
    table = list(base)
    out = bytearray()
    prev: bytes | None = None
    width, buf, nbits = 9, 0, 0
    for byte in raw:
        buf = (buf << 8) | byte
        nbits += 8
        while nbits >= width:
            nbits -= width
            code = (buf >> nbits) & ((1 << width) - 1)
            if code == 256:
                table = list(base)
                width, prev = 9, None
                continue
            if code == 257:
                return bytes(out)
            if prev is None:
                if code >= len(table):
                    raise ValueError("LZW: first code after clear not literal")
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):  # the KwKwK case
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise ValueError("LZW: code beyond table")
            out += entry
            prev = entry
            if len(table) == (1 << width) - 1 and width < 12:  # EarlyChange=1
                width += 1
    return bytes(out)  # missing EOD: tolerate, like zlib's truncated tail


def _asciihex_decode(raw: bytes) -> bytes:
    """/ASCIIHexDecode (§7.4.2): hex digits, whitespace ignored, '>' is EOD,
    odd trailing digit padded with 0."""
    end = raw.find(b">")
    if end >= 0:
        raw = raw[:end]
    hx = re.sub(rb"\s", b"", raw)
    if len(hx) % 2:
        hx += b"0"
    try:
        return bytes.fromhex(hx.decode("ascii"))
    except (UnicodeDecodeError, ValueError) as e:
        raise ValueError(f"ASCIIHex: {e}") from None


def _ascii85_decode(raw: bytes) -> bytes:
    """/ASCII85Decode (§7.4.3): 5 chars '!'..'u' → 4 bytes base-85, 'z' = four
    zero bytes, '~>' is EOD, partial final group of n chars → n-1 bytes."""
    raw = re.sub(rb"\s", b"", raw)
    if raw.startswith(b"<~"):
        raw = raw[2:]
    end = raw.find(b"~>")
    if end >= 0:
        raw = raw[:end]
    out = bytearray()
    group: list[int] = []
    for ch in raw:
        if ch == 0x7A:  # 'z'
            if group:
                raise ValueError("ASCII85: z inside group")
            out += b"\0\0\0\0"
            continue
        if not 0x21 <= ch <= 0x75:
            raise ValueError("ASCII85: char out of range")
        group.append(ch - 0x21)
        if len(group) == 5:
            acc = 0
            for d in group:
                acc = acc * 85 + d
            if acc > 0xFFFFFFFF:
                raise ValueError("ASCII85: group overflow")
            out += acc.to_bytes(4, "big")
            group = []
    if group:
        n = len(group)
        if n == 1:
            raise ValueError("ASCII85: lone trailing char")
        acc = 0
        for d in group + [84] * (5 - n):  # pad with 'u'
            acc = acc * 85 + d
        out += acc.to_bytes(4, "big")[:n - 1]
    return bytes(out)


def _runlength_decode(raw: bytes) -> bytes:
    """/RunLengthDecode (§7.4.5): length byte L<128 → copy L+1 literal bytes,
    L>128 → repeat next byte 257-L times, 128 = EOD."""
    out = bytearray()
    i = 0
    while i < len(raw):
        length = raw[i]
        if length == 128:
            break
        if length < 128:
            out += raw[i + 1:i + 2 + length]
            i += 2 + length
        else:
            out += raw[i + 1:i + 2] * (257 - length)
            i += 2
    return bytes(out)


def _unpredict(data: bytes, predictor: int, colors: int, bpc: int,
               columns: int) -> bytes:
    """Undo /DecodeParms predictors (§7.4.4.4): 2 = TIFF horizontal
    differencing (8-bit only), 10-15 = PNG per-row filters (RFC 2083)."""
    bpp = max(1, (colors * bpc + 7) // 8)
    rowlen = (columns * colors * bpc + 7) // 8
    if predictor == 2:
        if bpc != 8:
            raise ValueError("TIFF predictor supported for 8-bit only")
        buf = bytearray(data)
        for r in range(0, len(buf) - rowlen + 1, rowlen):
            for i in range(r + bpp, r + rowlen):
                buf[i] = (buf[i] + buf[i - bpp]) & 0xFF
        return bytes(buf)
    out = bytearray()
    prev = bytearray(rowlen)
    i = 0
    while i < len(data):
        ft = data[i]
        row = bytearray(data[i + 1:i + 1 + rowlen])
        i += 1 + rowlen
        if ft == 0:
            pass
        elif ft == 1:  # Sub
            for j in range(bpp, len(row)):
                row[j] = (row[j] + row[j - bpp]) & 0xFF
        elif ft == 2:  # Up
            for j in range(len(row)):
                row[j] = (row[j] + prev[j]) & 0xFF
        elif ft == 3:  # Average
            for j in range(len(row)):
                left = row[j - bpp] if j >= bpp else 0
                row[j] = (row[j] + (left + prev[j]) // 2) & 0xFF
        elif ft == 4:  # Paeth
            for j in range(len(row)):
                a = row[j - bpp] if j >= bpp else 0
                b = prev[j]
                c = prev[j - bpp] if j >= bpp else 0
                p = a + b - c
                pa, pb, pcv = abs(p - a), abs(p - b), abs(p - c)
                pred = a if pa <= pb and pa <= pcv else (b if pb <= pcv else c)
                row[j] = (row[j] + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG row filter {ft}")
        out += row
        prev = row
    return bytes(out)


def _filters_and_parms(head: bytes) -> list[tuple[bytes, dict[str, int]]]:
    """The stream dict's /Filter chain with each filter's integer
    /DecodeParms (Predictor/Columns/Colors/BitsPerComponent/EarlyChange)."""
    fm = re.search(rb"/Filter\s*(\[[^\]]*\]|/[A-Za-z0-9]+)", head)
    if fm is None:
        return []
    names = re.findall(rb"/([A-Za-z0-9]+)", fm.group(1))
    raw_parms: list[bytes] = []
    pm = re.search(rb"/(?:DecodeParms|DP)\s*(\[.*?\]|<<.*?>>|null)", head, re.S)
    if pm is not None:
        blob = pm.group(1)
        raw_parms = (re.findall(rb"<<.*?>>|null", blob, re.S)
                     if blob.startswith(b"[") else [blob])
    out = []
    for i, name in enumerate(names):
        parm_src = raw_parms[i] if i < len(raw_parms) else b""
        parms = {k.decode(): int(v) for k, v in re.findall(
            rb"/(Predictor|Columns|Colors|BitsPerComponent|EarlyChange)"
            rb"\s+(\d+)", parm_src)}
        out.append((name, parms))
    return out


def _parse_objects(data: bytes) -> dict[int, bytes]:
    """object number → object body (dict + optional stream), including objects
    unpacked from /ObjStm object streams."""
    objs: dict[int, bytes] = {}
    for m in _OBJ_RE.finditer(data):
        objs[int(m.group(1))] = m.group(3)
    # unpack object streams (PDF 1.5 compressed objects): the stream holds
    # "num offset num offset ..." then the serialized objects back to back
    for body in list(objs.values()):
        if b"/ObjStm" not in body:
            continue
        stream = _stream_bytes(body)
        if stream is None:
            continue
        n = _int_key(body, b"/N")
        first = _int_key(body, b"/First")
        if n is None or first is None:
            continue
        header = stream[:first].split()
        table = [(int(header[2 * i]), int(header[2 * i + 1])) for i in range(n)]
        for i, (num, off) in enumerate(table):
            end = table[i + 1][1] if i + 1 < n else len(stream) - first
            objs.setdefault(num, stream[first + off:first + end])
    return objs


def _int_key(body: bytes, key: bytes) -> int | None:
    m = re.search(re.escape(key) + rb"\s+(\d+)", body)
    return int(m.group(1)) if m else None


def _stream_bytes(body: bytes) -> bytes | None:
    """Decoded stream content of an object body (None if no stream or if any
    filter in the /Filter chain is unsupported / fails to decode)."""
    m = _STREAM_RE.search(body)
    if m is None:
        return None
    data = m.group(1)
    head = body[:m.start()]
    try:
        for name, parms in _filters_and_parms(head):
            if name == b"FlateDecode":
                data = zlib.decompress(data)
            elif name == b"LZWDecode":
                if parms.get("EarlyChange", 1) == 0:
                    return None  # EarlyChange=0 writers are unheard of
                data = _lzw_decode(data)
            elif name == b"ASCIIHexDecode":
                data = _asciihex_decode(data)
            elif name == b"ASCII85Decode":
                data = _ascii85_decode(data)
            elif name == b"RunLengthDecode":
                data = _runlength_decode(data)
            else:
                return None  # image-only / crypt filter (DCT, CCITT, ...)
            if (parms.get("Predictor", 1) > 1
                    and name in (b"FlateDecode", b"LZWDecode")):
                data = _unpredict(data, parms["Predictor"],
                                  parms.get("Colors", 1),
                                  parms.get("BitsPerComponent", 8),
                                  parms.get("Columns", 1))
    except (zlib.error, ValueError):
        return None
    return data


def _page_order(objs: dict[int, bytes]) -> list[int]:
    """Page object numbers in page-tree order (root /Pages → /Kids traversal);
    falls back to object-number order when the tree is unresolvable."""
    pages_in_tree: list[int] = []

    def walk(num: int, depth: int = 0) -> None:
        if depth > 64 or num not in objs:
            return
        body = objs[num]
        if re.search(rb"/Type\s*/Page\b(?!s)", body):
            pages_in_tree.append(num)
            return
        kids = re.search(rb"/Kids\s*\[(.*?)\]", body, re.S)
        if kids:
            for r in _REF_RE.finditer(kids.group(1)):
                walk(int(r.group(1)), depth + 1)

    roots = [num for num, body in objs.items()
             if re.search(rb"/Type\s*/Pages\b", body) and b"/Parent" not in body]
    for root in sorted(roots):
        walk(root)
    if pages_in_tree:
        return pages_in_tree
    return sorted(num for num, body in objs.items()
                  if re.search(rb"/Type\s*/Page\b(?!s)", body))


def _content_streams(page_body: bytes, objs: dict[int, bytes]) -> list[bytes]:
    m = re.search(rb"/Contents\s*(\[(.*?)\]|\d+\s+\d+\s+R)", page_body, re.S)
    if m is None:
        return []
    out = []
    for r in _REF_RE.finditer(m.group(1)):
        s = _stream_bytes(objs.get(int(r.group(1)), b""))
        if s is not None:
            out.append(s)
    return out


def _parse_cmap(data: bytes) -> tuple[int, dict[int, str]]:
    """/ToUnicode CMap (§9.10.3) → (code byte-width, code → text). Handles
    bfchar, bfrange with an incrementing base, and bfrange with an explicit
    destination array; destinations are UTF-16BE per the spec."""
    nbytes = 2
    cs = re.search(rb"begincodespacerange\s*<([0-9A-Fa-f]+)>", data)
    if cs is not None:
        nbytes = max(1, len(cs.group(1)) // 2)

    def dst_text(hx: bytes) -> str:
        h = hx.decode("ascii")
        if len(h) % 4:  # short (single-byte-ish) dst: left-pad to code units
            h = h.zfill((len(h) + 3) // 4 * 4)
        return bytes.fromhex(h).decode("utf-16-be", "replace")

    cmap: dict[int, str] = {}
    for seg in re.findall(rb"beginbfchar(.*?)endbfchar", data, re.S):
        for src, dst in re.findall(
                rb"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>", seg):
            cmap[int(src, 16)] = dst_text(dst)
    for seg in re.findall(rb"beginbfrange(.*?)endbfrange", data, re.S):
        for m in re.finditer(
                rb"<([0-9A-Fa-f]+)>\s*<([0-9A-Fa-f]+)>\s*"
                rb"(<[0-9A-Fa-f]+>|\[(?:\s*<[0-9A-Fa-f]+>)*\s*\])", seg):
            lo, hi = int(m.group(1), 16), int(m.group(2), 16)
            if hi < lo or hi - lo > 0xFFFF:  # malformed / runaway range
                continue
            dst = m.group(3)
            if dst.startswith(b"["):
                vals = re.findall(rb"<([0-9A-Fa-f]+)>", dst)
                for k, v in enumerate(vals[:hi - lo + 1]):
                    cmap[lo + k] = dst_text(v)
            else:
                width = len(dst) - 2
                base = int(dst[1:-1], 16)
                for k in range(hi - lo + 1):
                    cmap[lo + k] = dst_text(format(base + k,
                                                   f"0{width}x").encode())
    return nbytes, cmap


def _font_cmaps(page_body: bytes, objs: dict[int, bytes],
                ) -> dict[bytes, tuple[int, dict[int, str]] | None]:
    """Page /Resources → /Font: resource name → parsed /ToUnicode CMap, or
    None for simple fonts (which decode latin-1, the pre-CMap behavior)."""
    m = re.search(rb"/Resources\s*(<<|(\d+)\s+\d+\s+R)", page_body)
    if m is None:
        return {}
    res = (_dict_at(page_body, m.end(1) - 2) if m.group(1) == b"<<"
           else objs.get(int(m.group(2)), b""))
    fm = re.search(rb"/Font\s*(<<|(\d+)\s+\d+\s+R)", res)
    if fm is None:
        return {}
    fdict = (_dict_at(res, fm.end(1) - 2) if fm.group(1) == b"<<"
             else objs.get(int(fm.group(2)), b""))
    fonts: dict[bytes, tuple[int, dict[int, str]] | None] = {}
    for name, ref in re.findall(rb"/([^\s/<>\[\]()]+)\s+(\d+)\s+\d+\s+R",
                                fdict):
        body = objs.get(int(ref), b"")
        tm = re.search(rb"/ToUnicode\s+(\d+)\s+\d+\s+R", body)
        stream = (_stream_bytes(objs.get(int(tm.group(1)), b""))
                  if tm is not None else None)
        fonts[name] = _parse_cmap(stream) if stream else None
    return fonts


_ESCAPES = {b"n": b"\n", b"r": b"\r", b"t": b"\t", b"b": b"\b", b"f": b"\f",
            b"(": b"(", b")": b")", b"\\": b"\\"}


def _literal_string(data: bytes, i: int) -> tuple[bytes, int]:
    """Parse a PDF literal string starting at data[i] == '(' → (bytes, next_i)."""
    out = bytearray()
    depth = 1
    i += 1
    while i < len(data) and depth:
        c = data[i:i + 1]
        if c == b"\\":
            nxt = data[i + 1:i + 2]
            if nxt in _ESCAPES:
                out += _ESCAPES[nxt]
                i += 2
            elif nxt.isdigit():  # octal \ddd (1-3 digits)
                j = i + 1
                while j < len(data) and j < i + 4 and data[j:j + 1].isdigit():
                    j += 1
                out.append(int(data[i + 1:j], 8) & 0xFF)
                i = j
            elif nxt in (b"\n", b"\r"):  # line continuation
                i += 2
            else:
                i += 1
        elif c == b"(":
            depth += 1
            out += c
            i += 1
        elif c == b")":
            depth -= 1
            if depth:
                out += c
            i += 1
        else:
            out += c
            i += 1
    return bytes(out), i


_TOKEN_RE = re.compile(
    rb"\((?:\\.|[^\\()])|<[0-9A-Fa-f\s]*>|<<|>>|\[|\]|[-+]?\d*\.?\d+|/[^\s/<>\[\]()]*|[A-Za-z'\"*]+")


def _extract_page_text(
        streams: list[bytes],
        fonts: dict[bytes, tuple[int, dict[int, str]] | None] | None = None,
) -> str:
    """Walk the content stream, collect shown strings; Td/TD with dy, T* → line
    breaks; TJ kerns below -180/1000 em → word space; Tf switches the active
    font's ToUnicode CMap (None = simple font, latin-1)."""
    parts: list[str] = []
    state: dict[str, tuple[int, dict[int, str]] | None] = {"cmap": None}

    def show(raw: bytes) -> None:
        cmap = state["cmap"]
        if cmap is None:
            parts.append(raw.decode("latin-1"))
            return
        nbytes, mapping = cmap
        for off in range(0, len(raw) - nbytes + 1, nbytes):
            code = int.from_bytes(raw[off:off + nbytes], "big")
            parts.append(mapping.get(code, "�"))

    def line_break() -> None:
        if parts:  # the initial Td positions the cursor; no leading break
            parts.append("\n")

    for data in streams:
        i = 0
        stack: list[object] = []
        n = len(data)
        while i < n:
            c = data[i:i + 1]
            if c == b"(":
                s, i = _literal_string(data, i)
                stack.append(s)
                continue
            if c == b"<" and data[i + 1:i + 2] != b"<":
                j = data.find(b">", i)
                if j < 0:
                    break
                hx = re.sub(rb"\s", b"", data[i + 1:j])
                if len(hx) % 2:
                    hx += b"0"
                stack.append(bytes.fromhex(hx.decode("ascii")))
                i = j + 1
                continue
            m = _TOKEN_RE.match(data, i)
            if m is None:
                i += 1
                continue
            tok = m.group(0)
            i = m.end()
            if tok in (b"Tj",):
                if stack and isinstance(stack[-1], bytes):
                    show(stack[-1])
                stack.clear()
            elif tok in (b"'", b'"'):
                if stack and isinstance(stack[-1], bytes):
                    line_break()
                    show(stack[-1])
                stack.clear()
            elif tok == b"TJ":
                # stack holds the array items since "["
                for item in stack:
                    if isinstance(item, bytes):
                        show(item)
                    elif isinstance(item, float) and item < -180:
                        parts.append(" ")
                stack.clear()
            elif tok in (b"Td", b"TD"):
                if len(stack) >= 2 and isinstance(stack[-1], float):
                    if stack[-1] != 0:
                        line_break()
                stack.clear()
            elif tok == b"T*":
                line_break()
                stack.clear()
            elif tok == b"Tf":
                for item in reversed(stack):
                    if isinstance(item, bytes) and item.startswith(b"/"):
                        state["cmap"] = (fonts or {}).get(item[1:])
                        break
                stack.clear()
            elif tok in (b"[", b"]", b"<<", b">>"):
                if tok == b"[":
                    stack.clear()
            elif re.fullmatch(rb"[-+]?\d*\.?\d+", tok):
                try:
                    stack.append(float(tok))
                except ValueError:
                    pass
            elif tok.startswith(b"/"):
                stack.append(tok)
            else:
                # any other operator ends its operand list
                if tok not in (b"BT", b"ET"):
                    stack.clear()
    text = "".join(parts)
    return text


def _dict_at(data: bytes, start: int) -> bytes:
    """The balanced ``<< … >>`` dictionary that opens at ``data[start]``."""
    depth = 0
    for m in _DICT_DELIM_RE.finditer(data, start):
        depth += 1 if m.group() == b"<<" else -1
        if depth == 0:
            return data[start:m.end()]
    return data[start:]


def _is_encrypted(data: bytes) -> bool:
    """True when a trailer dictionary or an XRef-stream dictionary (one per
    incremental update) carries /Encrypt, as an indirect reference or an
    inline dictionary. Only those dictionaries count: the same bytes inside a
    content stream or a string are page text."""
    for m in _TRAILER_RE.finditer(data):
        if _ENCRYPT_RE.search(_dict_at(data, m.end())):
            return True
    for m in _OBJ_DICT_RE.finditer(data):
        d = _dict_at(data, m.end())
        if _XREF_TYPE_RE.search(d) and _ENCRYPT_RE.search(d):
            return True
    return False


def extract_pdf_text(data: bytes) -> str:
    """PDF bytes → text; pages joined with "\\n\\n" (parser.go:90). Raises
    ValueError when the bytes are not parseable as a PDF."""
    if not data.startswith(b"%PDF"):
        raise ValueError("not a PDF (missing %PDF header)")
    if _is_encrypted(data):
        raise EncryptedPdfError("encrypted PDF (no key handling)")
    objs = _parse_objects(data)
    if not objs:
        raise ValueError("no PDF objects found")
    pages = []
    for num in _page_order(objs):
        streams = _content_streams(objs[num], objs)
        pages.append(_extract_page_text(streams, _font_cmaps(objs[num], objs)))
    if not pages:
        raise ValueError("no pages found")
    return "\n\n".join(pages)
