package h2

import (
	"errors"
	"fmt"
)

// HeaderField is a single name/value pair in an HPACK header list.
type HeaderField struct {
	Name  string
	Value string
}

// String renders the field as "name: value".
func (f HeaderField) String() string { return f.Name + ": " + f.Value }

// size returns the RFC 7541 section 4.1 size of the entry: name and
// value lengths plus 32 octets of overhead.
func (f HeaderField) size() uint32 {
	return uint32(len(f.Name) + len(f.Value) + 32)
}

// staticTable is the HPACK static table (RFC 7541 Appendix A).
// Index 1 maps to staticTable[0].
var staticTable = [61]HeaderField{
	{Name: ":authority"},
	{Name: ":method", Value: "GET"},
	{Name: ":method", Value: "POST"},
	{Name: ":path", Value: "/"},
	{Name: ":path", Value: "/index.html"},
	{Name: ":scheme", Value: "http"},
	{Name: ":scheme", Value: "https"},
	{Name: ":status", Value: "200"},
	{Name: ":status", Value: "204"},
	{Name: ":status", Value: "206"},
	{Name: ":status", Value: "304"},
	{Name: ":status", Value: "400"},
	{Name: ":status", Value: "404"},
	{Name: ":status", Value: "500"},
	{Name: "accept-charset"},
	{Name: "accept-encoding", Value: "gzip, deflate"},
	{Name: "accept-language"},
	{Name: "accept-ranges"},
	{Name: "accept"},
	{Name: "access-control-allow-origin"},
	{Name: "age"},
	{Name: "allow"},
	{Name: "authorization"},
	{Name: "cache-control"},
	{Name: "content-disposition"},
	{Name: "content-encoding"},
	{Name: "content-language"},
	{Name: "content-length"},
	{Name: "content-location"},
	{Name: "content-range"},
	{Name: "content-type"},
	{Name: "cookie"},
	{Name: "date"},
	{Name: "etag"},
	{Name: "expect"},
	{Name: "expires"},
	{Name: "from"},
	{Name: "host"},
	{Name: "if-match"},
	{Name: "if-modified-since"},
	{Name: "if-none-match"},
	{Name: "if-range"},
	{Name: "if-unmodified-since"},
	{Name: "last-modified"},
	{Name: "link"},
	{Name: "location"},
	{Name: "max-forwards"},
	{Name: "proxy-authenticate"},
	{Name: "proxy-authorization"},
	{Name: "range"},
	{Name: "referer"},
	{Name: "refresh"},
	{Name: "retry-after"},
	{Name: "server"},
	{Name: "set-cookie"},
	{Name: "strict-transport-security"},
	{Name: "transfer-encoding"},
	{Name: "user-agent"},
	{Name: "vary"},
	{Name: "via"},
	{Name: "www-authenticate"},
}

// staticIndex maps "name\x00value" to a static table index for exact
// matches, and name alone to a name-only match.
var staticIndex = buildStaticIndex()

func buildStaticIndex() map[string]uint64 {
	m := make(map[string]uint64, 2*len(staticTable))
	for i := len(staticTable) - 1; i >= 0; i-- {
		f := staticTable[i]
		m[f.Name+"\x00"+f.Value] = uint64(i + 1)
		m[f.Name] = uint64(i + 1) // earliest entry wins for name-only
	}
	return m
}

// dynamicTable is an HPACK dynamic table: a FIFO of header fields with
// size-based eviction. Entry 1 is the most recently inserted.
type dynamicTable struct {
	entries []HeaderField // entries[0] is oldest
	size    uint32
	maxSize uint32
}

// setMaxSize updates the table capacity, evicting as needed.
func (t *dynamicTable) setMaxSize(max uint32) {
	t.maxSize = max
	t.evict()
}

// add inserts f, evicting old entries to stay within maxSize. An entry
// larger than the whole table empties it (RFC 7541 section 4.4).
func (t *dynamicTable) add(f HeaderField) {
	if f.size() > t.maxSize {
		t.entries = nil
		t.size = 0
		return
	}
	t.entries = append(t.entries, f)
	t.size += f.size()
	t.evict()
}

func (t *dynamicTable) evict() {
	var drop int
	for t.size > t.maxSize && drop < len(t.entries) {
		t.size -= t.entries[drop].size()
		drop++
	}
	if drop > 0 {
		t.entries = append(t.entries[:0], t.entries[drop:]...)
	}
}

// reset empties the table and restores capacity max, keeping the
// entries slice's backing array. Vacated slots are zeroed so the
// table does not pin dead strings.
func (t *dynamicTable) reset(max uint32) {
	for i := range t.entries {
		t.entries[i] = HeaderField{}
	}
	t.entries = t.entries[:0]
	t.size = 0
	t.maxSize = max
}

// len returns the number of live entries.
func (t *dynamicTable) len() int { return len(t.entries) }

// at returns the i-th entry where 1 is most recent.
func (t *dynamicTable) at(i uint64) (HeaderField, bool) {
	if i == 0 || i > uint64(len(t.entries)) {
		return HeaderField{}, false
	}
	return t.entries[uint64(len(t.entries))-i], true
}

// search returns the dynamic index (1 = most recent) of the best
// match: exact match preferred, else name-only, else 0.
func (t *dynamicTable) search(f HeaderField) (idx uint64, exact bool) {
	for i := len(t.entries) - 1; i >= 0; i-- {
		e := t.entries[i]
		if e.Name != f.Name {
			continue
		}
		d := uint64(len(t.entries) - i)
		if e.Value == f.Value {
			return d, true
		}
		if idx == 0 {
			idx = d
		}
	}
	return idx, false
}

// appendHpackInt appends the HPACK variable-length integer encoding
// of v with an n-bit prefix, OR-ing high into the first octet's
// non-prefix bits (RFC 7541 section 5.1).
func appendHpackInt(b []byte, high byte, n uint8, v uint64) []byte {
	limit := uint64(1)<<n - 1
	if v < limit {
		return append(b, high|byte(v))
	}
	b = append(b, high|byte(limit))
	v -= limit
	for v >= 128 {
		b = append(b, byte(v&0x7f)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

// readHpackInt decodes an HPACK integer with an n-bit prefix,
// returning the value and the remaining buffer.
func readHpackInt(b []byte, n uint8) (v uint64, rest []byte, err error) {
	if len(b) == 0 {
		return 0, nil, errNeedMore
	}
	limit := uint64(1)<<n - 1
	v = uint64(b[0]) & limit
	b = b[1:]
	if v < limit {
		return v, b, nil
	}
	var shift uint
	for i := 0; ; i++ {
		if i >= len(b) {
			return 0, nil, errNeedMore
		}
		octet := b[i]
		if shift > 56 {
			return 0, nil, errHpackIntOverflow
		}
		v += uint64(octet&0x7f) << shift
		shift += 7
		if octet&0x80 == 0 {
			return v, b[i+1:], nil
		}
	}
}

var (
	errNeedMore         = errors.New("h2: hpack: truncated input")
	errHpackIntOverflow = errors.New("h2: hpack: integer overflow")
)

// appendHpackString appends the HPACK string literal encoding of s,
// Huffman-coding it when that is shorter.
func appendHpackString(b []byte, s string) []byte {
	if hl := HuffmanEncodeLength(s); hl < len(s) {
		b = appendHpackInt(b, 0x80, 7, uint64(hl))
		return AppendHuffmanString(b, s)
	}
	b = appendHpackInt(b, 0, 7, uint64(len(s)))
	return append(b, s...)
}

// HpackEncoder compresses header lists into HPACK header blocks. The
// zero value is not usable; construct with NewHpackEncoder.
type HpackEncoder struct {
	table  dynamicTable
	keyBuf []byte // scratch for the static-index lookup key
}

// NewHpackEncoder returns an encoder with the given dynamic table
// capacity (use 4096 for the protocol default).
func NewHpackEncoder(maxTableSize uint32) *HpackEncoder {
	e := &HpackEncoder{}
	e.table.maxSize = maxTableSize
	return e
}

// Reset restores the encoder to its just-constructed state with the
// given table capacity, keeping the dynamic table's backing array so
// a reused encoder compresses without re-allocating it.
func (e *HpackEncoder) Reset(maxTableSize uint32) {
	e.table.reset(maxTableSize)
}

// AppendHeaderBlock appends the HPACK encoding of fields to b. Each
// field is sent indexed when a table holds it exactly, and otherwise
// as a literal with incremental indexing.
func (e *HpackEncoder) AppendHeaderBlock(b []byte, fields []HeaderField) []byte {
	for _, f := range fields {
		b = e.appendField(b, f)
	}
	return b
}

func (e *HpackEncoder) appendField(b []byte, f HeaderField) []byte {
	// Exact match: indexed representation (1xxxxxxx). The key is
	// assembled in a scratch buffer; the map probe with a string(...)
	// conversion compiles without a temporary string allocation.
	e.keyBuf = append(append(append(e.keyBuf[:0], f.Name...), 0), f.Value...)
	if idx, ok := staticIndex[string(e.keyBuf)]; ok {
		return appendHpackInt(b, 0x80, 7, idx)
	}
	if didx, exact := e.table.search(f); exact {
		return appendHpackInt(b, 0x80, 7, uint64(len(staticTable))+didx)
	}

	// Literal with incremental indexing (01xxxxxx).
	nameIdx := e.nameIndex(f.Name)
	b = appendHpackInt(b, 0x40, 6, nameIdx)
	if nameIdx == 0 {
		b = appendHpackString(b, f.Name)
	}
	b = appendHpackString(b, f.Value)
	e.table.add(f)
	return b
}

// nameIndex returns the combined static+dynamic index of a name-only
// match, or zero.
func (e *HpackEncoder) nameIndex(name string) uint64 {
	if idx, ok := staticIndex[name]; ok {
		return idx
	}
	if didx, _ := e.table.search(HeaderField{Name: name}); didx != 0 {
		return uint64(len(staticTable)) + didx
	}
	return 0
}

// HpackDecoder decompresses HPACK header blocks. The zero value is
// not usable; construct with NewHpackDecoder.
type HpackDecoder struct {
	table dynamicTable

	// maxAllowedTableSize bounds dynamic table size updates; set from
	// the local SETTINGS_HEADER_TABLE_SIZE.
	maxAllowedTableSize uint32

	// fields is the DecodeFull scratch; huffBuf is the Huffman decode
	// scratch and keyBuf builds literal-cache keys. strings caches
	// decoded literals by their encoding (see readString), so repeated
	// header values (paths, status codes) cost one decode and one
	// allocation per cache generation rather than one per block.
	fields  []HeaderField
	huffBuf []byte
	keyBuf  []byte
	strings map[string]string
}

// NewHpackDecoder returns a decoder whose dynamic table is capped at
// maxTableSize octets.
func NewHpackDecoder(maxTableSize uint32) *HpackDecoder {
	d := &HpackDecoder{maxAllowedTableSize: maxTableSize}
	d.table.maxSize = maxTableSize
	return d
}

// Reset restores protocol state (dynamic table and its capacity) to
// what NewHpackDecoder(maxTableSize) would produce, so a reused
// decoder tracks a fresh peer encoder. Decode scratch and the literal
// cache are deliberately kept: they hold no protocol state, a literal's
// encoding decodes to the same string under any peer, and remember
// bounds the cache on its own.
func (d *HpackDecoder) Reset(maxTableSize uint32) {
	d.table.reset(maxTableSize)
	d.maxAllowedTableSize = maxTableSize
}

// internCap bounds the literal cache. A session's recurring literals
// (status codes, authorities, a site's paths) number a few dozen, but
// a decoder reused across many sites sees every path of every site.
const internCap = 1024

// readString decodes an HPACK string literal. Its cache key is the
// literal's Huffman flag byte followed by its encoded bytes, so a
// literal seen before returns its cached string with neither a Huffman
// decode nor an allocation. A literal that fails to decode is never
// cached.
func (d *HpackDecoder) readString(b []byte) (s string, rest []byte, err error) {
	if len(b) == 0 {
		return "", nil, errNeedMore
	}
	flag := b[0] & 0x80
	n, b, err := readHpackInt(b, 7)
	if err != nil {
		return "", nil, err
	}
	if uint64(len(b)) < n {
		return "", nil, errNeedMore
	}
	raw, rest := b[:n], b[n:]
	d.keyBuf = append(append(d.keyBuf[:0], flag), raw...)
	if s, ok := d.strings[string(d.keyBuf)]; ok { // no-alloc map probe
		return s, rest, nil
	}
	if flag == 0 {
		return d.remember(raw), rest, nil
	}
	dec, err := HuffmanDecode(d.huffBuf[:0], raw)
	if err != nil {
		return "", nil, err
	}
	d.huffBuf = dec
	return d.remember(dec), rest, nil
}

// remember caches dec under the key in keyBuf and returns it as a
// string. Key and value share one allocation: the key followed by the
// value for a Huffman literal, and the key alone for a raw one, whose
// value is its encoding. A full cache is emptied before the insert, so
// it holds at most internCap literals and keeps recent ones.
func (d *HpackDecoder) remember(dec []byte) string {
	if d.strings == nil {
		d.strings = make(map[string]string)
	} else if len(d.strings) >= internCap {
		clear(d.strings)
	}
	n, off := len(d.keyBuf), 1
	if d.keyBuf[0] != 0 {
		d.keyBuf = append(d.keyBuf, dec...)
		off = n
	}
	entry := string(d.keyBuf)
	d.strings[entry[:n]] = entry[off:]
	return entry[off:]
}

// DecodeFull decodes a complete header block (all fragments already
// concatenated). The returned slice is scratch owned by the decoder,
// valid only until the next DecodeFull call. In steady state (every
// literal seen before) it allocates nothing.
func (d *HpackDecoder) DecodeFull(block []byte) ([]HeaderField, error) {
	fields, err := d.decode(d.fields[:0], block)
	d.fields = fields
	if err != nil {
		return nil, err
	}
	return fields, nil
}

func (d *HpackDecoder) decode(fields []HeaderField, b []byte) ([]HeaderField, error) {
	seenField := false
	for len(b) > 0 {
		octet := b[0]
		switch {
		case octet&0x80 != 0: // indexed field
			idx, rest, err := readHpackInt(b, 7)
			if err != nil {
				return fields, d.wrap(err)
			}
			b = rest
			f, err := d.fieldAt(idx)
			if err != nil {
				return fields, err
			}
			fields = append(fields, f)
			seenField = true

		case octet&0xc0 == 0x40: // literal, incremental indexing
			f, rest, err := d.readLiteral(b, 6)
			if err != nil {
				return fields, d.wrap(err)
			}
			b = rest
			d.table.add(f)
			fields = append(fields, f)
			seenField = true

		case octet&0xe0 == 0x20: // dynamic table size update
			if seenField {
				return fields, ConnectionError{Code: ErrCodeCompression, Reason: "table size update after field"}
			}
			v, rest, err := readHpackInt(b, 5)
			if err != nil {
				return fields, d.wrap(err)
			}
			if v > uint64(d.maxAllowedTableSize) {
				return fields, ConnectionError{Code: ErrCodeCompression, Reason: "table size update exceeds limit"}
			}
			d.table.setMaxSize(uint32(v))
			b = rest

		default: // literal without indexing (0000) or never-indexed (0001)
			f, rest, err := d.readLiteral(b, 4)
			if err != nil {
				return fields, d.wrap(err)
			}
			b = rest
			fields = append(fields, f)
			seenField = true
		}
	}
	return fields, nil
}

// readLiteral decodes a literal field representation whose name index
// uses an n-bit prefix.
func (d *HpackDecoder) readLiteral(b []byte, n uint8) (HeaderField, []byte, error) {
	idx, b, err := readHpackInt(b, n)
	if err != nil {
		return HeaderField{}, nil, err
	}
	var f HeaderField
	if idx != 0 {
		ref, err := d.fieldAt(idx)
		if err != nil {
			return HeaderField{}, nil, err
		}
		f.Name = ref.Name
	} else {
		f.Name, b, err = d.readString(b)
		if err != nil {
			return HeaderField{}, nil, err
		}
	}
	f.Value, b, err = d.readString(b)
	if err != nil {
		return HeaderField{}, nil, err
	}
	return f, b, nil
}

// fieldAt resolves a combined static+dynamic table index.
func (d *HpackDecoder) fieldAt(idx uint64) (HeaderField, error) {
	if idx == 0 {
		return HeaderField{}, ConnectionError{Code: ErrCodeCompression, Reason: "index 0"}
	}
	if idx <= uint64(len(staticTable)) {
		return staticTable[idx-1], nil
	}
	f, ok := d.table.at(idx - uint64(len(staticTable)))
	if !ok {
		return HeaderField{}, ConnectionError{Code: ErrCodeCompression, Reason: fmt.Sprintf("index %d out of range", idx)}
	}
	return f, nil
}

func (d *HpackDecoder) wrap(err error) error {
	var ce ConnectionError
	if errors.As(err, &ce) {
		return err
	}
	return ConnectionError{Code: ErrCodeCompression, Reason: err.Error()}
}
