//! IPv4 addresses and the /16 and /24 subnet views used by the paper's
//! IP-space-proximity features (§IV-D).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// An IPv4 address.
///
/// # Example
///
/// ```
/// use earlybird_logmodel::Ipv4;
/// let ip: Ipv4 = "191.146.166.145".parse()?;
/// assert_eq!(ip.octets(), [191, 146, 166, 145]);
/// assert_eq!(ip.subnet24().to_string(), "191.146.166.0/24");
/// # Ok::<(), earlybird_logmodel::ParseIpv4Error>(())
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize)]
pub struct Ipv4(u32);

impl Ipv4 {
    /// Creates an address from its four octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4(u32::from_be_bytes([a, b, c, d]))
    }

    /// Creates an address from a big-endian `u32`.
    pub const fn from_bits(bits: u32) -> Self {
        Ipv4(bits)
    }

    /// The address as a big-endian `u32`.
    pub const fn to_bits(self) -> u32 {
        self.0
    }

    /// The four octets, most significant first.
    pub const fn octets(self) -> [u8; 4] {
        self.0.to_be_bytes()
    }

    /// The enclosing /24 subnet.
    pub const fn subnet24(self) -> Subnet24 {
        Subnet24(self.0 >> 8)
    }

    /// The enclosing /16 subnet.
    pub const fn subnet16(self) -> Subnet16 {
        Subnet16(self.0 >> 16)
    }
}

impl fmt::Debug for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Ipv4({})", self)
    }
}

impl fmt::Display for Ipv4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let [a, b, c, d] = self.octets();
        write!(f, "{a}.{b}.{c}.{d}")
    }
}

/// Error returned when parsing an [`Ipv4`] from text fails.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseIpv4Error {
    text: String,
}

impl fmt::Display for ParseIpv4Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IPv4 address syntax: {:?}", self.text)
    }
}

impl std::error::Error for ParseIpv4Error {}

impl FromStr for Ipv4 {
    type Err = ParseIpv4Error;

    /// Bytewise dotted-quad parse: a single left-to-right pass with no
    /// `split` iterator and no `str::parse` round trip (this runs twice per
    /// DNS line on the ingest hot path). Accepts exactly the grammar the
    /// interchange format always accepted: four dot-separated runs of one
    /// to three ASCII digits, each ≤ 255 (leading zeros allowed).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || ParseIpv4Error { text: s.to_owned() };
        let mut octets = [0u8; 4];
        let mut slot = 0usize;
        let mut value = 0u32;
        let mut digits = 0u8;
        for &b in s.as_bytes() {
            if b == b'.' {
                if digits == 0 || slot == 3 {
                    return Err(err());
                }
                octets[slot] = value as u8;
                slot += 1;
                value = 0;
                digits = 0;
            } else {
                let d = b.wrapping_sub(b'0');
                if d > 9 || digits == 3 {
                    return Err(err());
                }
                value = value * 10 + u32::from(d);
                if value > 255 {
                    return Err(err());
                }
                digits += 1;
            }
        }
        if digits == 0 || slot != 3 {
            return Err(err());
        }
        octets[3] = value as u8;
        let [a, b, c, d] = octets;
        Ok(Ipv4::new(a, b, c, d))
    }
}

/// A /24 subnet (first three octets).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Subnet24(u32);

impl fmt::Display for Subnet24 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.0 << 8;
        write!(f, "{}/24", Ipv4::from_bits(bits))
    }
}

/// A /16 subnet (first two octets).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Subnet16(u32);

impl fmt::Display for Subnet16 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let bits = self.0 << 16;
        write!(f, "{}/16", Ipv4::from_bits(bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octet_roundtrip() {
        let ip = Ipv4::new(74, 92, 144, 170);
        assert_eq!(ip.octets(), [74, 92, 144, 170]);
        assert_eq!(ip.to_string(), "74.92.144.170");
    }

    #[test]
    fn parse_valid() {
        let ip: Ipv4 = "8.8.4.4".parse().unwrap();
        assert_eq!(ip, Ipv4::new(8, 8, 4, 4));
    }

    #[test]
    fn parse_rejects_garbage() {
        for bad in [
            "",
            "1.2.3",
            "1.2.3.4.5",
            "1.2.3.256",
            "a.b.c.d",
            "1..2.3",
            "01x.2.3.4",
            ".1.2.3.4",
            "1.2.3.4.",
            "1.2.3.0009",
            "+1.2.3.4",
            " 1.2.3.4",
            "1.2.3.4 ",
            "1.2.3.-4",
        ] {
            assert!(bad.parse::<Ipv4>().is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn parse_accepts_leading_zeros() {
        // The interchange format has always accepted zero-padded octets.
        assert_eq!("007.010.000.255".parse::<Ipv4>().unwrap(), Ipv4::new(7, 10, 0, 255));
    }

    #[test]
    fn subnets_share_prefix() {
        let a = Ipv4::new(191, 146, 166, 145);
        let b = Ipv4::new(191, 146, 166, 31);
        let c = Ipv4::new(191, 146, 224, 111);
        assert_eq!(a.subnet24(), b.subnet24());
        assert_ne!(a.subnet24(), c.subnet24());
        assert_eq!(a.subnet16(), c.subnet16());
        assert_eq!(a.subnet24().to_string(), "191.146.166.0/24");
        assert_eq!(a.subnet16().to_string(), "191.146.0.0/16");
    }

    #[test]
    fn parse_display_roundtrip_property() {
        // Light-weight deterministic sweep; the proptest suite in the
        // workspace integration tests covers the full space.
        for bits in [0u32, 1, 0xFFFF_FFFF, 0x0A00_0001, 0xC0A8_0101] {
            let ip = Ipv4::from_bits(bits);
            let back: Ipv4 = ip.to_string().parse().unwrap();
            assert_eq!(back, ip);
        }
    }
}
