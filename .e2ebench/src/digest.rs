//! FNV-1a digests of rendered artifacts and simulated results.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental 64-bit FNV-1a hash.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(OFFSET)
    }
}

impl Fnv {
    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(PRIME);
        }
        self
    }

    /// Feeds a string followed by a separator, so concatenations differ.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Feeds the exact bit patterns of `values`.
    pub fn f64s(&mut self, values: &[f64]) -> &mut Self {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
        self
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// Digest of a sequence of strings.
pub fn of_strs<S: AsRef<str>>(parts: &[S]) -> u64 {
    let mut h = Fnv::default();
    for p in parts {
        h.str(p.as_ref());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn separators_keep_splits_apart() {
        assert_ne!(of_strs(&["ab", "c"]), of_strs(&["a", "bc"]));
        assert_eq!(of_strs(&["ab", "c"]), of_strs(&["ab", "c"]));
    }
}
