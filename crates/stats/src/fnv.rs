//! The workspace's one FNV-1a implementation.
//!
//! Canonical golden artifacts ([`craqr_scenario`'s report and the adaptive
//! controller's trace) end in a 64-bit FNV-1a checksum line so CI can
//! compare runs by checksum alone. The hash used to be re-implemented per
//! consumer; this module is now the single source of truth.
//!
//! FNV-1a is a fold over bytes, so a hash can be continued: hashing `a`
//! and then continuing over `b` equals hashing `a ++ b`. Writers that
//! emit a document piece by piece ([`fnv1a64_extend`]) hash each piece in
//! place instead of concatenating the document to hash it.

/// The offset basis: the hash of the empty string.
const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x100_0000_01b3;

/// 64-bit FNV-1a over a byte string — stable, dependency-free, and fast
/// enough for report-sized inputs.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(OFFSET, bytes)
}

/// Continues the FNV-1a hash `hash` over `bytes`:
/// `fnv1a64_extend(fnv1a64(a), b) == fnv1a64(a ++ b)`.
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        hash ^= *b as u64;
        hash = hash.wrapping_mul(PRIME);
    }
    hash
}

/// Continues two independent hashes over the same bytes in one pass —
/// the two multiply chains interleave, so this costs about as much as
/// one [`fnv1a64_extend`].
pub fn fnv1a64_extend2(hashes: [u64; 2], bytes: &[u8]) -> [u64; 2] {
    let [mut a, mut b] = hashes;
    for byte in bytes {
        a = (a ^ *byte as u64).wrapping_mul(PRIME);
        b = (b ^ *byte as u64).wrapping_mul(PRIME);
    }
    [a, b]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a64(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn order_sensitive() {
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
    }

    #[test]
    fn continuing_equals_hashing_the_concatenation() {
        let whole = b"foobar, then some more bytes";
        for cut in 0..=whole.len() {
            let (a, b) = whole.split_at(cut);
            assert_eq!(fnv1a64_extend(fnv1a64(a), b), fnv1a64(whole), "cut {cut}");
            let seeds = [fnv1a64(a), fnv1a64(b"other")];
            let [x, y] = fnv1a64_extend2(seeds, b);
            assert_eq!((x, y), (fnv1a64_extend(seeds[0], b), fnv1a64_extend(seeds[1], b)));
        }
    }
}
