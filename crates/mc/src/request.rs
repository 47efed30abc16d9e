//! Memory request records as seen by the controller.

use bwpart_dram::MemTransaction;
use serde::{Deserialize, Serialize};

/// One line-granular memory request from a core (demand miss or writeback).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemRequest {
    /// Issuing application (core) index.
    pub app: usize,
    /// Physical byte address.
    pub addr: u64,
    /// Write (writeback) or read (demand miss).
    pub is_write: bool,
    /// CPU cycle the request arrived at the controller.
    pub arrival: u64,
}

impl MemRequest {
    /// Convenience constructor for a demand read.
    pub fn read(app: usize, addr: u64, arrival: u64) -> Self {
        MemRequest {
            app,
            addr,
            is_write: false,
            arrival,
        }
    }

    /// Convenience constructor for a writeback.
    pub fn write(app: usize, addr: u64, arrival: u64) -> Self {
        MemRequest {
            app,
            addr,
            is_write: true,
            arrival,
        }
    }

    /// The DRAM transaction this request asks for.
    pub(crate) fn txn(&self) -> MemTransaction {
        MemTransaction {
            app: self.app,
            addr: self.addr,
            is_write: self.is_write,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_direction() {
        let r = MemRequest::read(2, 0x40, 100);
        assert!(!r.is_write);
        assert_eq!(r.app, 2);
        let w = MemRequest::write(1, 0x80, 200);
        assert!(w.is_write);
        assert_eq!(w.arrival, 200);
    }
}
