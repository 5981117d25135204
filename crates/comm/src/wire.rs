//! The `Wire` encoding layer of the transport boundary.
//!
//! Every value that crosses the byte-stream transport is encoded by a
//! [`Wire`] impl. The format is deliberately boring — it has to be
//! readable by a future out-of-process peer that shares nothing but this
//! specification:
//!
//! * **Pod-like scalars** (`u8..u128`, `i32`/`i64`, `f32`/`f64`,
//!   `Weight`-style newtypes in downstream crates) are fixed-width
//!   little-endian — the layout the radix sorter and the flat buffers
//!   already assume, so encoding a `&[CEdge]` is a plain field walk.
//! * **Counts and displacements** (`usize`, `Vec` lengths, `FlatBuckets`
//!   bucket counts) are LEB128 varints — the paper's 7-bit codec
//!   (Sec. VI-C), which wins on the small values these overwhelmingly
//!   are.
//! * **Containers** (`Vec<T>`, `Option<T>`, tuples, `FlatBuckets<T>`)
//!   compose element encodings with varint length/count headers.
//!
//! Decoding is total: every read is bounds-checked and returns
//! [`WireError`] on truncated or malformed input instead of panicking,
//! so a corrupt frame from a (future) remote peer cannot take the
//! process down.
//!
//! ## Coalesced bucket frames
//!
//! The byte-lane collectives ship **one `CH_DATA` frame per (peer,
//! round)**: a flat exchange serializes the whole destination bucket —
//! varint element count followed by the elements ([`write_slice`]) —
//! into a single pooled buffer, and a paired flat exchange prepends the
//! sub-message `u32` count header the same way (`write_slice(sub)`
//! then `write_slice(data)`). Framing cost is therefore per peer per
//! superstep, not per value, and the fault-injection checksum of
//! `crate::fault` covers the coalesced payload as one unit. Senders
//! encode with [`encode_into`] into buffers recycled across rounds
//! (the `Comm` buffer pool), and receivers decode from borrowed
//! `&[u8]` views of the transport's own receive buffers — the data
//! path allocates nothing per value in steady state.
//!
//! The **modeled** β-cost of a collective is charged on
//! `size_of::<T>()`-based logical bytes (see [`crate::bytes_for`]), *not*
//! on the encoded length — the cost model describes the simulated
//! machine, and keeping it encoding-independent is what makes modeled
//! times bit-for-bit identical across transports.

// ---------------------------------------------------------------------
// Socket frame header
// ---------------------------------------------------------------------

/// Data-plane frame of the socket transport: a collective round's
/// payload, stamped with the sender's round sequence and type tag.
pub const CH_DATA: u8 = 0;
/// Barrier-plane frame: one dissemination-barrier signal carrying the
/// sender's running clock maximum.
pub const CH_BARRIER: u8 = 1;
/// Handshake frame: rank identification during mesh construction and
/// launcher rendezvous. Never seen after the mesh is up.
pub const CH_HELLO: u8 = 2;
/// Liveness probe: a blocked PE pings the peer it is waiting on (`b` =
/// 0) and any live transport answers with a pong (`b` = 1) from its
/// receive pump — so a broken connection is discovered by the ping
/// *write* failing in O(probe interval) instead of a full io-timeout
/// expiry. Zero payload, absorbed below the collective layer.
pub const CH_PING: u8 = 3;

/// Encoded size of a [`FrameHeader`]: channel byte plus four LE fields.
pub const FRAME_HEADER_LEN: usize = 1 + 8 + 8 + 4 + 8;

/// Maximum accepted payload length of one socket frame (256 MiB). A
/// header announcing more is rejected as a protocol violation before
/// anything is allocated — corrupt length fields must not become
/// allocation bombs.
pub const MAX_FRAME_PAYLOAD: u32 = 1 << 28;

/// The fixed-width header in front of every socket-transport frame.
///
/// Layout (little-endian): `channel: u8`, `a: u64`, `b: u64`,
/// `len: u32`, `sum: u64`, followed by `len` payload bytes.
/// The meaning of `a`/`b` depends on the channel:
///
/// | channel | `a` | `b` |
/// |---|---|---|
/// | [`CH_DATA`] | round sequence | payload [`type_tag`] |
/// | [`CH_BARRIER`] | `episode << 8 \| round` | clock maximum as `f64` bits |
/// | [`CH_HELLO`] | sender's claimed rank | protocol magic |
/// | [`CH_PING`] | probe nonce | 0 = ping, 1 = pong |
///
/// `sum` is the frame checksum, stamped and verified only while fault
/// injection is armed (see `crate::fault`); it is written as 0 and
/// ignored otherwise, so the reliable-fabric fast path pays nothing but
/// the field's bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FrameHeader {
    pub channel: u8,
    pub a: u64,
    pub b: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Fault-mode frame checksum (0 when fault hooks are not armed).
    pub sum: u64,
}

impl FrameHeader {
    /// Append the encoded header to `out`.
    pub fn write(&self, out: &mut Vec<u8>) {
        out.push(self.channel);
        out.extend_from_slice(&self.a.to_le_bytes());
        out.extend_from_slice(&self.b.to_le_bytes());
        out.extend_from_slice(&self.len.to_le_bytes());
        out.extend_from_slice(&self.sum.to_le_bytes());
    }

    /// The encoded header as a stack array — the vectored socket send
    /// path writes `[header, payload]` without assembling a frame `Vec`.
    pub fn to_array(&self) -> [u8; FRAME_HEADER_LEN] {
        let mut out = [0u8; FRAME_HEADER_LEN];
        out[0] = self.channel;
        out[1..9].copy_from_slice(&self.a.to_le_bytes());
        out[9..17].copy_from_slice(&self.b.to_le_bytes());
        out[17..21].copy_from_slice(&self.len.to_le_bytes());
        out[21..29].copy_from_slice(&self.sum.to_le_bytes());
        out
    }

    /// Decode a header from the first [`FRAME_HEADER_LEN`] bytes of `buf`.
    pub fn parse(buf: &[u8]) -> Result<Self, WireError> {
        if buf.len() < FRAME_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let channel = buf[0];
        if channel > CH_PING {
            return Err(WireError::Malformed("frame channel"));
        }
        let word = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
        Ok(Self {
            channel,
            a: word(1),
            b: word(9),
            len: u32::from_le_bytes(buf[17..21].try_into().unwrap()),
            sum: word(21),
        })
    }
}

/// Split the leading frame off a receive buffer: `Ok(None)` when `buf`
/// holds only part of a frame (read more), otherwise the parsed header
/// plus the total encoded size (header + payload) to consume. Length
/// lies are rejected *before* any allocation: a header announcing more
/// than [`MAX_FRAME_PAYLOAD`] is `Malformed`, and a plausible length is
/// only trusted once that many bytes have actually arrived. This is the
/// exact splitter the socket pump runs on raw network input, exported
/// so the fuzz suite can hammer it with truncated/bit-flipped/lying
/// frames directly.
pub fn split_frame(buf: &[u8]) -> Result<Option<(FrameHeader, usize)>, WireError> {
    if buf.len() < FRAME_HEADER_LEN {
        return Ok(None);
    }
    let h = FrameHeader::parse(buf)?;
    if h.len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Malformed("oversized frame"));
    }
    let total = FRAME_HEADER_LEN + h.len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((h, total)))
}

/// A stable-within-one-binary numeric tag for type `T` — the socket
/// transport's frame type stamp. Derived by hashing the `TypeId` with a
/// fixed-key FNV-1a, so it is identical across the processes of one
/// launcher invocation (they all exec the same binary) without relying
/// on `TypeId`'s unstable internal representation crossing the wire
/// directly.
pub fn type_tag<T: 'static>() -> u64 {
    struct Fnv(u64);
    impl std::hash::Hasher for Fnv {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 ^= b as u64;
                self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
    }
    use std::hash::{Hash, Hasher};
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    std::any::TypeId::of::<T>().hash(&mut h);
    h.finish()
}

/// Errors surfaced by checked wire decoding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    Truncated,
    /// A varint ran past the 10-byte / 64-bit limit.
    VarintOverflow,
    /// A structurally invalid encoding (bad tag, count mismatch, …).
    Malformed(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire input truncated"),
            WireError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            WireError::Malformed(what) => write!(f, "malformed wire value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append `x` as a LEB128-style 7-bit varint (at most 10 bytes).
#[inline]
pub fn write_uvarint(out: &mut Vec<u8>, mut x: u64) {
    loop {
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Checked varint decode from `buf` starting at `*pos`, advancing it.
///
/// Rejects truncated input ([`WireError::Truncated`]) and continuations
/// past the 64-bit capacity ([`WireError::VarintOverflow`]) — including
/// the 10-byte encodings whose final byte carries bits above 2^63.
#[inline]
pub fn try_read_uvarint(buf: &[u8], pos: &mut usize) -> Result<u64, WireError> {
    let mut x = 0u64;
    let mut shift = 0u32;
    loop {
        let &byte = buf.get(*pos).ok_or(WireError::Truncated)?;
        *pos += 1;
        let low = (byte & 0x7F) as u64;
        if shift >= 64 || (shift == 63 && low > 1) {
            return Err(WireError::VarintOverflow);
        }
        x |= low << shift;
        if byte & 0x80 == 0 {
            return Ok(x);
        }
        shift += 7;
    }
}

/// A bounds-checked cursor over an encoded buffer.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Take the next `n` raw bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// Take a fixed-size array of raw bytes.
    #[inline]
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let s = self.take(N)?;
        let mut a = [0u8; N];
        a.copy_from_slice(s);
        Ok(a)
    }

    /// Decode a varint.
    #[inline]
    pub fn uvarint(&mut self) -> Result<u64, WireError> {
        try_read_uvarint(self.buf, &mut self.pos)
    }

    /// Decode a varint-encoded length, rejecting lengths that could not
    /// possibly fit in the remaining input (`min_elem_bytes` is a lower
    /// bound on one element's encoding) — a cheap guard against
    /// allocation bombs from corrupt frames. Zero-width elements (`()`)
    /// occupy no input and allocate nothing, so their counts pass
    /// unchecked.
    #[inline]
    pub fn length(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.uvarint()?;
        let n = usize::try_from(n).map_err(|_| WireError::Malformed("length exceeds usize"))?;
        if min_elem_bytes > 0 && n.saturating_mul(min_elem_bytes) > self.remaining() {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// Assert the value consumed the whole buffer (frame framing is
    /// exact: one value per frame).
    pub fn finish(self) -> Result<(), WireError> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after value"))
        }
    }
}

/// A value that can cross the byte-stream transport.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, consuming
/// exactly the bytes `encode` produced.
pub trait Wire: Sized {
    /// Append this value's encoding to `out`.
    fn wire_write(&self, out: &mut Vec<u8>);
    /// Decode one value from the reader.
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError>;
    /// A lower bound on the encoded size of any value of this type, used
    /// to sanity-check length headers before allocating. Conservative
    /// (1) by default.
    #[inline]
    fn wire_min_size() -> usize {
        1
    }

    /// Append the encodings of every element of `xs`. The default is
    /// the element-wise loop; byte slices override it with one
    /// `extend_from_slice` (their encoding *is* their memory).
    #[inline]
    fn wire_write_many(xs: &[Self], out: &mut Vec<u8>) {
        for x in xs {
            x.wire_write(out);
        }
    }
}

/// Encode one value into a fresh buffer.
pub fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.wire_write(&mut out);
    out
}

/// Encode one value into a reused buffer: `out` is cleared, then filled
/// with exactly the bytes [`encode`] would produce — but the buffer's
/// capacity is retained, so a pool of these amortises every allocation
/// of the send path away after the first round.
pub fn encode_into<T: Wire>(value: &T, out: &mut Vec<u8>) {
    out.clear();
    value.wire_write(out);
}

/// Decode one value, requiring the buffer to be consumed exactly.
pub fn decode<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::wire_read(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// Append a varint count followed by the elements of `s`.
pub fn write_slice<T: Wire>(out: &mut Vec<u8>, s: &[T]) {
    write_uvarint(out, s.len() as u64);
    T::wire_write_many(s, out);
}

/// Decode a counted slice written by [`write_slice`].
pub fn read_vec<T: Wire>(r: &mut WireReader<'_>) -> Result<Vec<T>, WireError> {
    let n = r.length(T::wire_min_size())?;
    let mut v = Vec::with_capacity(n);
    for _ in 0..n {
        v.push(T::wire_read(r)?);
    }
    Ok(v)
}

macro_rules! wire_le_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            #[inline]
            fn wire_write(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(<$t>::from_le_bytes(r.take_array()?))
            }
            #[inline]
            fn wire_min_size() -> usize {
                std::mem::size_of::<$t>()
            }
        }
    )*};
}

wire_le_int!(u16, u32, u64, u128, i8, i16, i32, i64, i128);

/// `u8` gets the LE-int impl plus a bulk path: a byte slice's encoding
/// is its memory, so `write_slice(&[u8])` is one memcpy.
impl Wire for u8 {
    #[inline]
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(r.take_array::<1>()?[0])
    }
    #[inline]
    fn wire_min_size() -> usize {
        1
    }
    #[inline]
    fn wire_write_many(xs: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(xs);
    }
}

impl Wire for f32 {
    #[inline]
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f32::from_bits(u32::from_le_bytes(r.take_array()?)))
    }
    #[inline]
    fn wire_min_size() -> usize {
        4
    }
}

impl Wire for f64 {
    #[inline]
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(u64::from_le_bytes(r.take_array()?)))
    }
    #[inline]
    fn wire_min_size() -> usize {
        8
    }
}

/// `usize` values are counts/ranks/displacements — varint wins.
impl Wire for usize {
    #[inline]
    fn wire_write(&self, out: &mut Vec<u8>) {
        write_uvarint(out, *self as u64);
    }
    #[inline]
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.uvarint()?).map_err(|_| WireError::Malformed("usize overflow"))
    }
}

impl Wire for bool {
    #[inline]
    fn wire_write(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_array::<1>()?[0] {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool tag")),
        }
    }
}

impl Wire for () {
    #[inline]
    fn wire_write(&self, _out: &mut Vec<u8>) {}
    #[inline]
    fn wire_read(_r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(())
    }
    #[inline]
    fn wire_min_size() -> usize {
        0
    }
}

macro_rules! wire_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Wire),+> Wire for ($($name,)+) {
            #[inline]
            fn wire_write(&self, out: &mut Vec<u8>) {
                $(self.$idx.wire_write(out);)+
            }
            #[inline]
            fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                Ok(($($name::wire_read(r)?,)+))
            }
            #[inline]
            fn wire_min_size() -> usize {
                0 $(+ $name::wire_min_size())+
            }
        }
    };
}

wire_tuple!(A: 0);
wire_tuple!(A: 0, B: 1);
wire_tuple!(A: 0, B: 1, C: 2);
wire_tuple!(A: 0, B: 1, C: 2, D: 3);
wire_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl<T: Wire> Wire for Option<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.wire_write(out);
            }
        }
    }
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_array::<1>()?[0] {
            0 => Ok(None),
            1 => Ok(Some(T::wire_read(r)?)),
            _ => Err(WireError::Malformed("Option tag")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn wire_write(&self, out: &mut Vec<u8>) {
        write_slice(out, self);
    }
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        read_vec(r)
    }
}

impl Wire for String {
    fn wire_write(&self, out: &mut Vec<u8>) {
        write_uvarint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn wire_read(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.length(1)?;
        let bytes = r.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Malformed("non-UTF-8 string"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let buf = encode(&v);
        assert_eq!(decode::<T>(&buf).unwrap(), v);
    }

    #[test]
    fn scalar_roundtrips() {
        roundtrip(0u8);
        roundtrip(u8::MAX);
        roundtrip(u16::MAX);
        roundtrip(123u32);
        roundtrip(u64::MAX);
        roundtrip(u128::MAX);
        roundtrip(-7i32);
        roundtrip(i64::MIN);
        roundtrip(3.25f32);
        roundtrip(-0.0f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(usize::MAX);
    }

    #[test]
    fn nan_survives_by_bits() {
        let buf = encode(&f64::NAN);
        assert!(decode::<f64>(&buf).unwrap().is_nan());
    }

    #[test]
    fn container_roundtrips() {
        roundtrip(Some(42u64));
        roundtrip(None::<u64>);
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<u64>::new());
        roundtrip(vec![(); 5]); // zero-width elements decode, not Truncated
        roundtrip((1u32, 2u64, 3usize));
        roundtrip((1u8, (2u16, vec![3u32]), Some(4u64), false, 5i64));
        roundtrip(String::from("héllo"));
        roundtrip(vec![Some((1u64, 2u32)), None]);
    }

    #[test]
    fn uvarint_boundaries() {
        for k in 0..10u32 {
            for x in [
                (1u64 << (7 * k)).wrapping_sub(1),
                1u64.checked_shl(7 * k).unwrap_or(0),
            ] {
                let mut buf = Vec::new();
                write_uvarint(&mut buf, x);
                let mut pos = 0;
                assert_eq!(try_read_uvarint(&buf, &mut pos), Ok(x), "x={x}");
                assert_eq!(pos, buf.len());
            }
        }
        let mut buf = Vec::new();
        write_uvarint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
        let mut pos = 0;
        assert_eq!(try_read_uvarint(&buf, &mut pos), Ok(u64::MAX));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        assert_eq!(decode::<u64>(&[1, 2, 3]), Err(WireError::Truncated));
        assert_eq!(
            try_read_uvarint(&[0x80, 0x80], &mut 0),
            Err(WireError::Truncated)
        );
        // Vec claiming a huge length over a short buffer.
        let mut bomb = Vec::new();
        write_uvarint(&mut bomb, 1 << 40);
        assert_eq!(decode::<Vec<u64>>(&bomb), Err(WireError::Truncated));
    }

    #[test]
    fn varint_overflow_is_detected() {
        // 11 continuation bytes.
        let over = [0xFFu8; 11];
        assert_eq!(
            try_read_uvarint(&over, &mut 0),
            Err(WireError::VarintOverflow)
        );
        // 10-byte encoding whose last byte has bits beyond 2^63.
        let mut buf = vec![0xFF; 9];
        buf.push(0x02);
        assert_eq!(
            try_read_uvarint(&buf, &mut 0),
            Err(WireError::VarintOverflow)
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = encode(&7u32);
        buf.push(0);
        assert_eq!(
            decode::<u32>(&buf),
            Err(WireError::Malformed("trailing bytes after value"))
        );
    }

    #[test]
    fn malformed_tags_rejected() {
        assert_eq!(decode::<bool>(&[2]), Err(WireError::Malformed("bool tag")));
        assert_eq!(
            decode::<Option<u8>>(&[9, 0]),
            Err(WireError::Malformed("Option tag"))
        );
    }

    #[test]
    fn frame_header_roundtrips() {
        let h = FrameHeader {
            channel: CH_BARRIER,
            a: 0x0102_0304,
            b: 7.5f64.to_bits(),
            len: 12345,
            sum: 0xDEAD_BEEF_F00D_CAFE,
        };
        let mut buf = Vec::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), FRAME_HEADER_LEN);
        assert_eq!(FrameHeader::parse(&buf), Ok(h));
    }

    #[test]
    fn frame_header_rejects_garbage() {
        assert_eq!(
            FrameHeader::parse(&[0u8; FRAME_HEADER_LEN - 1]),
            Err(WireError::Truncated)
        );
        let mut buf = vec![9u8; FRAME_HEADER_LEN]; // invalid channel
        assert_eq!(
            FrameHeader::parse(&buf),
            Err(WireError::Malformed("frame channel"))
        );
        buf[0] = CH_DATA;
        assert!(FrameHeader::parse(&buf).is_ok());
        buf[0] = CH_PING;
        assert!(FrameHeader::parse(&buf).is_ok());
    }

    #[test]
    fn split_frame_rejects_length_lies_before_allocating() {
        let mut buf = Vec::new();
        FrameHeader {
            channel: CH_DATA,
            a: 1,
            b: 2,
            len: 3,
            sum: 0,
        }
        .write(&mut buf);
        buf.extend_from_slice(&[7, 8, 9]);
        // Complete frame splits; a strict prefix asks for more input.
        let (h, total) = split_frame(&buf).unwrap().expect("complete frame");
        assert_eq!((h.a, h.b, total), (1, 2, buf.len()));
        for cut in 0..buf.len() {
            assert_eq!(split_frame(&buf[..cut]).unwrap(), None, "cut={cut}");
        }
        // A header lying about its length: oversized is rejected before
        // any allocation, plausible-but-unfulfilled waits for bytes.
        buf[17..21].copy_from_slice(&(MAX_FRAME_PAYLOAD + 1).to_le_bytes());
        assert_eq!(
            split_frame(&buf),
            Err(WireError::Malformed("oversized frame"))
        );
        buf[17..21].copy_from_slice(&1000u32.to_le_bytes());
        assert_eq!(split_frame(&buf), Ok(None));
    }

    #[test]
    fn type_tags_distinguish_types_and_stay_stable() {
        assert_eq!(type_tag::<Vec<u64>>(), type_tag::<Vec<u64>>());
        assert_ne!(type_tag::<Vec<u64>>(), type_tag::<Vec<u32>>());
        assert_ne!(type_tag::<u64>(), type_tag::<i64>());
    }
}
