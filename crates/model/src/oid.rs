//! Object identity.
//!
//! §2 of the paper: *"A database is a collection of persistent objects,
//! each identified by a unique identifier, called the object identifier
//! (id) that is its identity. We shall also refer to this object id as a
//! pointer to a persistent object."*
//!
//! An [`Oid`] names an object for its whole lifetime: it is the cluster
//! (type-extent) heap id plus the stable record id of the object's anchor
//! record. Dereferencing an `Oid` always yields the object's *current*
//! version — it is the paper's **generic reference** (§4). A
//! [`VersionRef`] pins a particular version: the **specific reference**.

use ode_storage::RecordId;

/// Version numbers are dense per object, starting at 0.
pub type VersionNo = u32;

/// The unique identity of a persistent object (a *generic* reference: it
/// denotes the current version, however many `newversion` calls happen).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Oid {
    /// The cluster (heap) holding the object — clusters are type extents,
    /// so this also determines the object's (base) cluster.
    pub cluster: u32,
    /// The object's anchor record within the cluster heap.
    pub rid: RecordId,
}

impl Oid {
    /// Pack into 10 bytes for embedding in object payloads.
    pub fn to_bytes(self) -> [u8; 10] {
        let mut out = [0u8; 10];
        out[..4].copy_from_slice(&self.cluster.to_le_bytes());
        out[4..].copy_from_slice(&self.rid.to_bytes());
        out
    }

    /// Unpack from 10 bytes.
    pub fn from_bytes(b: &[u8]) -> Option<Oid> {
        if b.len() < 10 {
            return None;
        }
        Some(Oid {
            cluster: u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            rid: RecordId::from_bytes(&b[4..10])?,
        })
    }
}

impl std::fmt::Display for Oid {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.cluster, self.rid)
    }
}

/// Parses the `cluster:page.slot` form [`Oid`]'s `Display` prints.
impl std::str::FromStr for Oid {
    type Err = crate::ModelError;

    fn from_str(spec: &str) -> crate::Result<Oid> {
        let parsed = || {
            let (cluster, rest) = spec.split_once(':')?;
            let (page, slot) = rest.split_once('.')?;
            Some(Oid {
                cluster: cluster.parse().ok()?,
                rid: RecordId {
                    page: page.parse().ok()?,
                    slot: slot.parse().ok()?,
                },
            })
        };
        parsed().ok_or_else(|| crate::ModelError::Parse {
            message: format!("`{spec}` is not an oid (cluster:page.slot)"),
            at: 0,
        })
    }
}

/// A *specific* reference (§4): one fixed version of one object. Unlike an
/// [`Oid`], it does not track the object as new versions are created.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VersionRef {
    /// The object.
    pub oid: Oid,
    /// The pinned version.
    pub version: VersionNo,
}

impl VersionRef {
    /// Pack into 14 bytes.
    pub fn to_bytes(self) -> [u8; 14] {
        let mut out = [0u8; 14];
        out[..10].copy_from_slice(&self.oid.to_bytes());
        out[10..].copy_from_slice(&self.version.to_le_bytes());
        out
    }

    /// Unpack from 14 bytes.
    pub fn from_bytes(b: &[u8]) -> Option<VersionRef> {
        if b.len() < 14 {
            return None;
        }
        Some(VersionRef {
            oid: Oid::from_bytes(&b[..10])?,
            version: u32::from_le_bytes([b[10], b[11], b[12], b[13]]),
        })
    }
}

impl std::fmt::Display for VersionRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@v{}", self.oid, self.version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_oid() -> Oid {
        Oid {
            cluster: 42,
            rid: RecordId { page: 7, slot: 3 },
        }
    }

    #[test]
    fn oid_byte_roundtrip() {
        let oid = sample_oid();
        assert_eq!(Oid::from_bytes(&oid.to_bytes()), Some(oid));
        assert_eq!(Oid::from_bytes(&[0; 5]), None);
    }

    #[test]
    fn oid_text_roundtrip() {
        let oid = sample_oid();
        assert_eq!(oid.to_string().parse::<Oid>().unwrap(), oid);
        for bad in ["junk", "1:2", "a:b.c", ""] {
            assert!(bad.parse::<Oid>().is_err(), "{bad}");
        }
    }

    #[test]
    fn version_ref_byte_roundtrip() {
        let vref = VersionRef {
            oid: sample_oid(),
            version: 9,
        };
        assert_eq!(VersionRef::from_bytes(&vref.to_bytes()), Some(vref));
        assert_eq!(VersionRef::from_bytes(&[0; 13]), None);
    }

    #[test]
    fn display_is_readable() {
        let vref = VersionRef {
            oid: sample_oid(),
            version: 2,
        };
        assert_eq!(vref.to_string(), "42:7.3@v2");
    }
}
