//! Generic bit-level utilities and channel-coding primitives shared by the
//! PHY implementations: bit/byte packing, a parameterized CRC engine, GF(2)
//! polynomial division, LFSR scrambling/whitening, and simple FEC codes
//! (repetition, shortened Hamming (15,10) used by Bluetooth's 2/3-rate FEC).

/// Unpacks bytes into bits, least-significant bit of each byte first
/// (the transmission order used by 802.11 and Bluetooth).
pub fn bytes_to_bits_lsb(bytes: &[u8]) -> Vec<bool> {
    let mut bits = Vec::with_capacity(bytes.len() * 8);
    for &b in bytes {
        for i in 0..8 {
            bits.push((b >> i) & 1 == 1);
        }
    }
    bits
}

/// Packs bits (LSB-first per byte) back into bytes. The bit count must be a
/// multiple of 8.
pub fn bits_to_bytes_lsb(bits: &[bool]) -> Vec<u8> {
    assert!(
        bits.len().is_multiple_of(8),
        "bit count {} not a multiple of 8",
        bits.len()
    );
    bits.chunks(8)
        .map(|c| {
            c.iter()
                .enumerate()
                .fold(0u8, |b, (i, &bit)| b | ((bit as u8) << i))
        })
        .collect()
}

/// Unpacks a `u64` into `n` bits, LSB first.
pub fn u64_to_bits_lsb(v: u64, n: usize) -> Vec<bool> {
    (0..n).map(|i| (v >> i) & 1 == 1).collect()
}

/// Packs up to 64 bits (LSB first) into a `u64`.
pub fn bits_to_u64_lsb(bits: &[bool]) -> u64 {
    assert!(bits.len() <= 64);
    bits.iter()
        .enumerate()
        .fold(0u64, |v, (i, &b)| v | ((b as u64) << i))
}

// ---------------------------------------------------------------------------
// CRC engine
// ---------------------------------------------------------------------------

/// A parameterized CRC (reflected, LSB-first variant as used by IEEE 802
/// protocols).
#[derive(Debug, Clone)]
pub struct Crc {
    /// Reflected polynomial (e.g. `0xEDB88320` for CRC-32/IEEE).
    poly_reflected: u64,
    width: u32,
    init: u64,
    xor_out: u64,
}

impl Crc {
    /// Creates a CRC from its *normal* (MSB-first) polynomial representation.
    ///
    /// * `width` — CRC width in bits (≤ 64).
    /// * `poly` — normal polynomial without the leading term, e.g. `0x04C11DB7`.
    /// * `init` — initial register value (pre-reflection not applied; pass the
    ///   reflected init, which for all-ones/all-zeros is the same).
    /// * `xor_out` — final XOR.
    pub fn new(width: u32, poly: u64, init: u64, xor_out: u64) -> Self {
        assert!((1..=64).contains(&width));
        Self {
            poly_reflected: reflect(poly, width),
            width,
            init,
            xor_out,
        }
    }

    /// CRC-32/IEEE 802.3 (used for the 802.11 MAC FCS).
    pub fn crc32_ieee() -> Self {
        Self::new(32, 0x04C11DB7, 0xFFFF_FFFF, 0xFFFF_FFFF)
    }

    /// CRC-16/X25 aka CRC-16/IBM-SDLC: poly 0x1021 (reflected), init all
    /// ones, output complemented. This is the CRC used by the 802.11b PLCP
    /// header per IEEE 802.11-2007 §18.2.3.6 and by many HDLC-derived links.
    pub fn crc16_x25() -> Self {
        Self::new(16, 0x1021, 0xFFFF, 0xFFFF)
    }

    /// CRC-16/CCITT with zero init (802.15.4 FCS, ITU-T variant).
    pub fn crc16_802154() -> Self {
        Self::new(16, 0x1021, 0x0000, 0x0000)
    }

    /// Bluetooth payload CRC: poly 0x1021 with init taken from the UAP
    /// (placed in the upper byte per Bluetooth BB §7.1.4).
    pub fn crc16_bluetooth(uap: u8) -> Self {
        Self::new(16, 0x1021, reflect((uap as u64) << 8, 16), 0x0000)
    }

    /// Computes the CRC over `data` bytes (bit order: LSB-first).
    pub fn compute(&self, data: &[u8]) -> u64 {
        let mut reg = self.init;
        for &byte in data {
            reg ^= byte as u64;
            for _ in 0..8 {
                if reg & 1 == 1 {
                    reg = (reg >> 1) ^ self.poly_reflected;
                } else {
                    reg >>= 1;
                }
            }
            reg &= mask(self.width);
        }
        (reg ^ self.xor_out) & mask(self.width)
    }

    /// Computes the CRC over a bit slice (LSB-first semantics matching
    /// [`Crc::compute`]).
    pub fn compute_bits(&self, bits: &[bool]) -> u64 {
        let mut reg = self.init;
        for &bit in bits {
            let inbit = (reg & 1) ^ (bit as u64);
            reg >>= 1;
            if inbit == 1 {
                reg ^= self.poly_reflected;
            }
            reg &= mask(self.width);
        }
        (reg ^ self.xor_out) & mask(self.width)
    }

    /// The CRC width in bits.
    pub fn width(&self) -> u32 {
        self.width
    }
}

fn mask(width: u32) -> u64 {
    if width == 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

fn reflect(v: u64, width: u32) -> u64 {
    let mut out = 0u64;
    for i in 0..width {
        if (v >> i) & 1 == 1 {
            out |= 1 << (width - 1 - i);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Fast CRC-32 for byte slices
// ---------------------------------------------------------------------------

/// CRC-32/IEEE 802.3 over `data` — the same value as
/// `Crc::crc32_ieee().compute(data) as u32` (init and final XOR all ones,
/// reflected; `crc32(b"123456789") == 0xCBF4_3926`).
///
/// This is the CRC on the per-sample paths (RFDN frame payloads, the 802.11
/// FCS); the generic bit-serial [`Crc`] stays as the engine for every other
/// width and as the oracle this function is tested against. It runs through
/// the active kernel table: slice-by-8 on the scalar backend (the
/// reference), carry-less-multiply folding on the SSE2 and AVX2 backends
/// when the CPU has PCLMULQDQ. A CRC is integer arithmetic, so every
/// backend returns the same value.
pub fn crc32(data: &[u8]) -> u32 {
    crate::kernels::crc32(data)
}

// ---------------------------------------------------------------------------
// GF(2) polynomial arithmetic (for BCH-style systematic encoders)
// ---------------------------------------------------------------------------

/// Computes `data(x) * x^deg mod gen(x)` over GF(2), where `gen` includes its
/// leading term and `deg` is the generator degree. Both polynomials are
/// bit-packed LSB = x^0. Used to build systematic codewords (parity bits).
pub fn gf2_mod(mut data: u128, data_bits: u32, generator: u128, deg: u32) -> u128 {
    // Shift data up by deg (multiply by x^deg).
    data <<= deg;
    let total = data_bits + deg;
    for i in (deg..total).rev() {
        if (data >> i) & 1 == 1 {
            data ^= generator << (i - deg);
        }
    }
    data & ((1u128 << deg) - 1)
}

// ---------------------------------------------------------------------------
// Scramblers
// ---------------------------------------------------------------------------

/// A self-synchronizing (multiplicative) scrambler with polynomial
/// `x^7 + x^4 + 1`, as specified for 802.11b (IEEE 802.11-2007 §18.2.4).
///
/// The same structure descrambles: feed received bits through
/// [`Scrambler::descramble_bit`].
#[derive(Debug, Clone)]
pub struct Scrambler {
    state: u8, // 7 bits
}

impl Scrambler {
    /// Creates a scrambler with the given 7-bit seed. 802.11b uses `0x1B`
    /// for the long preamble and `0x6C` for the short preamble.
    pub fn new(seed: u8) -> Self {
        Self { state: seed & 0x7F }
    }

    /// Scrambles one bit.
    #[inline]
    pub fn scramble_bit(&mut self, bit: bool) -> bool {
        // Feedback from taps at positions 4 and 7 (x^4, x^7).
        let fb = ((self.state >> 3) ^ (self.state >> 6)) & 1;
        let out = (bit as u8) ^ fb;
        self.state = ((self.state << 1) | out) & 0x7F;
        out == 1
    }

    /// Descrambles one bit (self-synchronizing: state is fed from the
    /// *received* bit, so the descrambler locks on after 7 bits even with a
    /// wrong seed).
    #[inline]
    pub fn descramble_bit(&mut self, bit: bool) -> bool {
        let fb = ((self.state >> 3) ^ (self.state >> 6)) & 1;
        let out = (bit as u8) ^ fb;
        self.state = ((self.state << 1) | bit as u8) & 0x7F;
        out == 1
    }

    /// Scrambles a bit slice.
    pub fn scramble(&mut self, bits: &[bool]) -> Vec<bool> {
        bits.iter().map(|&b| self.scramble_bit(b)).collect()
    }

    /// Descrambles a bit slice.
    pub fn descramble(&mut self, bits: &[bool]) -> Vec<bool> {
        bits.iter().map(|&b| self.descramble_bit(b)).collect()
    }
}

/// An additive (synchronous) whitening LFSR with polynomial `x^7 + x^4 + 1`,
/// as used for Bluetooth data whitening (BB §7.2). Unlike [`Scrambler`] the
/// keystream is independent of the data, so whitening and dewhitening are the
/// same operation.
#[derive(Debug, Clone)]
pub struct Whitener {
    state: u8, // 7 bits
}

impl Whitener {
    /// Creates a whitener seeded from the Bluetooth clock bits (CLK6-1 with
    /// bit 6 forced to 1, per spec).
    pub fn for_bt_clock(clk: u32) -> Self {
        Self {
            state: ((clk as u8) & 0x3F) | 0x40,
        }
    }

    /// Raw seed constructor.
    pub fn new(seed: u8) -> Self {
        Self { state: seed & 0x7F }
    }

    /// XORs the keystream over `bits` in place.
    pub fn apply(&mut self, bits: &mut [bool]) {
        for b in bits.iter_mut() {
            let out = (self.state >> 6) & 1;
            *b ^= out == 1;
            let fb = ((self.state >> 6) ^ (self.state >> 3)) & 1;
            self.state = ((self.state << 1) | fb) & 0x7F;
        }
    }
}

// ---------------------------------------------------------------------------
// FEC
// ---------------------------------------------------------------------------

/// Encodes with the rate-1/3 repetition code (each bit sent three times),
/// used by the Bluetooth packet header.
pub fn repeat3_encode(bits: &[bool]) -> Vec<bool> {
    let mut out = Vec::with_capacity(bits.len() * 3);
    for &b in bits {
        out.extend_from_slice(&[b, b, b]);
    }
    out
}

/// Majority-decodes a rate-1/3 repetition stream. Input length must be a
/// multiple of 3.
pub fn repeat3_decode(bits: &[bool]) -> Vec<bool> {
    assert!(bits.len().is_multiple_of(3));
    bits.chunks(3)
        .map(|c| (c[0] as u8 + c[1] as u8 + c[2] as u8) >= 2)
        .collect()
}

/// The Bluetooth 2/3-rate FEC: a (15,10) shortened Hamming code with
/// generator polynomial `g(D) = D^5 + D^4 + D^2 + 1` (0b110101).
///
/// Encodes 10 information bits into 15 (10 data + 5 parity). Input length
/// must be a multiple of 10 (pad upstream per spec).
pub fn hamming1510_encode(bits: &[bool]) -> Vec<bool> {
    assert!(bits.len().is_multiple_of(10));
    const GEN: u128 = 0b110101; // degree 5
    let mut out = Vec::with_capacity(bits.len() / 10 * 15);
    for block in bits.chunks(10) {
        // Pack block LSB-first (bit 0 transmitted first = x^9 coefficient in
        // the systematic view; a consistent convention on both ends is all
        // that matters here).
        let data = bits_to_u64_lsb(block) as u128;
        let parity = gf2_mod(data, 10, GEN, 5);
        out.extend_from_slice(block);
        out.extend(u64_to_bits_lsb(parity as u64, 5));
    }
    out
}

/// Decodes the (15,10) code, correcting any single-bit error per block.
/// Returns `(data_bits, corrected_error_count)`. Input length must be a
/// multiple of 15.
pub fn hamming1510_decode(bits: &[bool]) -> (Vec<bool>, usize) {
    assert!(bits.len().is_multiple_of(15));
    const GEN: u128 = 0b110101;
    let mut out = Vec::with_capacity(bits.len() / 15 * 10);
    let mut corrected = 0;
    for block in bits.chunks(15) {
        let data = bits_to_u64_lsb(&block[..10]) as u128;
        let rx_parity = bits_to_u64_lsb(&block[10..]) as u128;
        let syndrome = gf2_mod(data, 10, GEN, 5) ^ rx_parity;
        if syndrome == 0 {
            out.extend_from_slice(&block[..10]);
            continue;
        }
        // Single-error correction: try flipping each of the 15 positions and
        // accept the first that zeroes the syndrome. 15 trials per block is
        // plenty fast for header-sized payloads.
        let mut fixed = None;
        for pos in 0..15 {
            let mut trial: Vec<bool> = block.to_vec();
            trial[pos] = !trial[pos];
            let d = bits_to_u64_lsb(&trial[..10]) as u128;
            let p = bits_to_u64_lsb(&trial[10..]) as u128;
            if gf2_mod(d, 10, GEN, 5) == p {
                fixed = Some(trial);
                break;
            }
        }
        match fixed {
            Some(t) => {
                corrected += 1;
                out.extend_from_slice(&t[..10]);
            }
            None => {
                // Uncorrectable; emit as-is and let the CRC catch it.
                out.extend_from_slice(&block[..10]);
            }
        }
    }
    (out, corrected)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_bytes_round_trip() {
        let bytes = vec![0x00, 0xFF, 0xA5, 0x3C, 0x01];
        let bits = bytes_to_bits_lsb(&bytes);
        assert_eq!(bits.len(), 40);
        assert_eq!(bits_to_bytes_lsb(&bits), bytes);
        // LSB first: 0xA5 = 1010_0101 -> first bit is 1.
        let a5 = bytes_to_bits_lsb(&[0xA5]);
        assert!(a5[0]);
        assert!(!a5[1]);
        assert!(a5[7]);
    }

    #[test]
    fn u64_bits_round_trip() {
        let v = 0xDEAD_BEEF_u64;
        assert_eq!(bits_to_u64_lsb(&u64_to_bits_lsb(v, 40)), v);
    }

    #[test]
    fn crc32_known_vector() {
        // CRC-32/IEEE of "123456789" is 0xCBF43926.
        let crc = Crc::crc32_ieee();
        assert_eq!(crc.compute(b"123456789"), 0xCBF43926);
    }

    #[test]
    fn fast_crc32_equals_the_bit_serial_engine() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        let oracle = Crc::crc32_ieee();
        let check = |data: &[u8]| {
            assert_eq!(
                crc32(data),
                oracle.compute(data) as u32,
                "length {}",
                data.len()
            );
        };
        // Every length around the 8-byte stride (head-only, whole words,
        // every remainder), then the sizes RFDN frames actually have: a
        // 4096-sample chunk payload is 16 396 bytes, a 16 384-sample one
        // 65 548.
        let mut rng = crate::rng::Xoshiro256::new(0xC0C3_2009);
        for len in (0..=72).chain([4095, 4096, 4097, 16_396, 65_548]) {
            let mut data = vec![0u8; len];
            rng.fill_bytes(&mut data);
            check(&data);
            check(&vec![0x00; len]);
            check(&vec![0xFF; len]);
        }
    }

    #[test]
    fn crc16_x25_known_vector() {
        // CRC-16/X-25 of "123456789" is 0x906E.
        let crc = Crc::crc16_x25();
        assert_eq!(crc.compute(b"123456789"), 0x906E);
    }

    #[test]
    fn crc16_802154_known_vector() {
        // CRC-16/KERMIT-family with init 0: check value 0x2189 for "123456789".
        let crc = Crc::crc16_802154();
        assert_eq!(crc.compute(b"123456789"), 0x2189);
    }

    #[test]
    fn crc_bits_matches_bytes() {
        let crc = Crc::crc32_ieee();
        let data = b"hello rfdump";
        assert_eq!(
            crc.compute(data),
            crc.compute_bits(&bytes_to_bits_lsb(data))
        );
    }

    #[test]
    fn crc_detects_single_bit_errors() {
        let crc = Crc::crc16_x25();
        let data = b"packet payload".to_vec();
        let good = crc.compute(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut bad = data.clone();
                bad[byte] ^= 1 << bit;
                assert_ne!(crc.compute(&bad), good);
            }
        }
    }

    #[test]
    fn scrambler_descrambler_round_trip() {
        let data: Vec<bool> = (0..200).map(|i| (i * 7 % 5) % 2 == 0).collect();
        let mut s = Scrambler::new(0x1B);
        let tx = s.scramble(&data);
        assert_ne!(tx, data);
        let mut d = Scrambler::new(0x1B);
        assert_eq!(d.descramble(&tx), data);
    }

    #[test]
    fn descrambler_self_synchronizes_with_wrong_seed() {
        let data: Vec<bool> = (0..100).map(|i| i % 3 == 0).collect();
        let mut s = Scrambler::new(0x1B);
        let tx = s.scramble(&data);
        let mut d = Scrambler::new(0x00); // wrong seed
        let rx = d.descramble(&tx);
        // After the 7-bit register flushes, output matches.
        assert_eq!(&rx[7..], &data[7..]);
    }

    #[test]
    fn scrambled_ones_look_random() {
        // The 802.11b sync field is 128 scrambled ones; it must not be a
        // constant sequence.
        let mut s = Scrambler::new(0x1B);
        let tx = s.scramble(&[true; 128]);
        let ones = tx.iter().filter(|&&b| b).count();
        assert!(ones > 40 && ones < 90, "ones {ones}");
    }

    #[test]
    fn whitener_is_involutive() {
        let mut bits: Vec<bool> = (0..64).map(|i| i % 5 == 0).collect();
        let orig = bits.clone();
        Whitener::for_bt_clock(0x2A).apply(&mut bits);
        assert_ne!(bits, orig);
        Whitener::for_bt_clock(0x2A).apply(&mut bits);
        assert_eq!(bits, orig);
    }

    #[test]
    fn repeat3_majority_corrects_single_errors() {
        let data = vec![true, false, true, true, false];
        let mut coded = repeat3_encode(&data);
        // Flip one bit in each triple.
        for i in 0..data.len() {
            coded[i * 3 + (i % 3)] = !coded[i * 3 + (i % 3)];
        }
        assert_eq!(repeat3_decode(&coded), data);
    }

    #[test]
    fn hamming1510_round_trip_and_single_error_correction() {
        let data: Vec<bool> = (0..40).map(|i| (i * 11) % 7 < 3).collect();
        let coded = hamming1510_encode(&data);
        assert_eq!(coded.len(), 60);
        let (decoded, n) = hamming1510_decode(&coded);
        assert_eq!(decoded, data);
        assert_eq!(n, 0);
        // Flip one bit per block.
        let mut bad = coded.clone();
        for blk in 0..4 {
            bad[blk * 15 + (blk * 4 % 15)] = !bad[blk * 15 + (blk * 4 % 15)];
        }
        let (decoded, n) = hamming1510_decode(&bad);
        assert_eq!(decoded, data);
        assert_eq!(n, 4);
    }

    #[test]
    fn gf2_mod_simple() {
        // x^3 mod (x^2 + 1) = x * (x^2 mod ...) -> x^3 = x*(x^2+1) + x -> rem x.
        let rem = gf2_mod(0b1, 1, 0b101, 2); // data=1 (degree 0), shifted by 2: x^2 mod x^2+1 = 1
        assert_eq!(rem, 0b1);
    }
}
