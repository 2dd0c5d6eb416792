//! The portmapper (program 100000, RFC 1057 appendix A): servers register
//! `(prog, vers, prot) → port` mappings; clients look ports up before
//! calling. Runs as a regular RPC service on the well-known port 111.

use crate::clnt_udp::ClntUdp;
use crate::error::RpcError;
use crate::svc::SvcRegistry;
use specrpc_netsim::net::{Addr, Network};
use specrpc_xdr::primitives::{xdr_bool, xdr_u_long};
use specrpc_xdr::{XdrResult, XdrStream};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Portmapper program number.
pub const PMAP_PROG: u32 = 100_000;
/// Portmapper program version.
pub const PMAP_VERS: u32 = 2;
/// Well-known portmapper port.
pub const PMAP_PORT: Addr = 111;

/// Procedure numbers.
pub const PMAPPROC_NULL: u32 = 0;
/// Register a mapping.
pub const PMAPPROC_SET: u32 = 1;
/// Remove a mapping.
pub const PMAPPROC_UNSET: u32 = 2;
/// Look up a port.
pub const PMAPPROC_GETPORT: u32 = 3;

/// TCP's protocol number, the `prot` of a stream service's mapping.
pub const IPPROTO_TCP: u32 = 6;

/// One mapping entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Mapping {
    /// Program number.
    pub prog: u32,
    /// Program version.
    pub vers: u32,
    /// Transport protocol (17 for UDP, [`IPPROTO_TCP`]).
    pub prot: u32,
    /// Port the service listens on.
    pub port: u32,
}

impl Mapping {
    /// XDR filter for the 4-word mapping.
    pub fn xdr(xdrs: &mut dyn XdrStream, m: &mut Mapping) -> XdrResult {
        xdr_u_long(xdrs, &mut m.prog)?;
        xdr_u_long(xdrs, &mut m.vers)?;
        xdr_u_long(xdrs, &mut m.prot)?;
        xdr_u_long(xdrs, &mut m.port)
    }
}

/// The shared portmapper table: `(prog, vers, prot) -> port`.
pub type PmapTable = Arc<Mutex<HashMap<(u32, u32, u32), u32>>>;

/// Create a portmapper service and install it on the network at
/// [`PMAP_PORT`]. Returns the shared mapping table.
pub fn start_portmapper(net: &Network) -> PmapTable {
    let table: PmapTable = Arc::new(Mutex::new(HashMap::new()));
    let mut reg = SvcRegistry::new();

    reg.register(PMAP_PROG, PMAP_VERS, PMAPPROC_NULL, |_, _, _| Ok(()));

    let t = table.clone();
    reg.register(
        PMAP_PROG,
        PMAP_VERS,
        PMAPPROC_SET,
        move |_, args, results| {
            let mut m = Mapping {
                prog: 0,
                vers: 0,
                prot: 0,
                port: 0,
            };
            Mapping::xdr(args, &mut m)?;
            let inserted = match t
                .lock()
                .expect("pmap table")
                .entry((m.prog, m.vers, m.prot))
            {
                std::collections::hash_map::Entry::Occupied(_) => false,
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(m.port);
                    true
                }
            };
            let mut ok = inserted;
            xdr_bool(results, &mut ok)?;
            Ok(())
        },
    );

    let t = table.clone();
    reg.register(
        PMAP_PROG,
        PMAP_VERS,
        PMAPPROC_UNSET,
        move |_, args, results| {
            let mut m = Mapping {
                prog: 0,
                vers: 0,
                prot: 0,
                port: 0,
            };
            Mapping::xdr(args, &mut m)?;
            let mut removed = false;
            t.lock().expect("pmap table").retain(|k, _| {
                let hit = k.0 == m.prog && k.1 == m.vers;
                removed |= hit;
                !hit
            });
            xdr_bool(results, &mut removed)?;
            Ok(())
        },
    );

    let t = table.clone();
    reg.register(
        PMAP_PROG,
        PMAP_VERS,
        PMAPPROC_GETPORT,
        move |_, args, results| {
            let mut m = Mapping {
                prog: 0,
                vers: 0,
                prot: 0,
                port: 0,
            };
            Mapping::xdr(args, &mut m)?;
            let mut port = *t
                .lock()
                .expect("pmap table")
                .get(&(m.prog, m.vers, m.prot))
                .unwrap_or(&0);
            xdr_u_long(xdrs_cast(results), &mut port)?;
            Ok(())
        },
    );

    crate::serve(net, Arc::new(reg), crate::ServeConfig::new(&[PMAP_PORT])).detach();
    table
}

// Identity helper keeping the closure signatures tidy.
fn xdrs_cast(x: &mut dyn XdrStream) -> &mut dyn XdrStream {
    x
}

/// Client helper: register a mapping with the portmapper (`pmap_set`).
pub fn pmap_set(net: &Network, local: Addr, m: Mapping) -> Result<bool, RpcError> {
    let mut clnt = ClntUdp::create(net, local, PMAP_PORT, PMAP_PROG, PMAP_VERS);
    let mut ok = false;
    let mut m2 = m;
    clnt.call(PMAPPROC_SET, &mut |x| Mapping::xdr(x, &mut m2), &mut |x| {
        xdr_bool(x, &mut ok)
    })?;
    Ok(ok)
}

/// Client helper: look a port up (`pmap_getport`). Errors with
/// [`RpcError::ProgNotRegistered`] when the mapping is absent.
pub fn pmap_getport(
    net: &Network,
    local: Addr,
    prog: u32,
    vers: u32,
    prot: u32,
) -> Result<Addr, RpcError> {
    let mut clnt = ClntUdp::create(net, local, PMAP_PORT, PMAP_PROG, PMAP_VERS);
    let mut port = 0u32;
    let mut m = Mapping {
        prog,
        vers,
        prot,
        port: 0,
    };
    clnt.call(
        PMAPPROC_GETPORT,
        &mut |x| Mapping::xdr(x, &mut m),
        &mut |x| xdr_u_long(x, &mut port),
    )?;
    if port == 0 {
        return Err(RpcError::ProgNotRegistered);
    }
    Ok(port as Addr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use specrpc_netsim::net::NetworkConfig;

    const IPPROTO_UDP: u32 = 17;

    #[test]
    fn set_getport_unset_cycle() {
        let net = Network::new(NetworkConfig::lan(), 21);
        start_portmapper(&net);
        let m = Mapping {
            prog: 500_000,
            vers: 1,
            prot: IPPROTO_UDP,
            port: 2049,
        };
        assert!(pmap_set(&net, 6000, m).unwrap());
        assert_eq!(
            pmap_getport(&net, 6001, 500_000, 1, IPPROTO_UDP).unwrap(),
            2049
        );
        let mut clnt = ClntUdp::create(&net, 6002, PMAP_PORT, PMAP_PROG, PMAP_VERS);
        let (mut m, mut removed) = (Mapping { port: 0, ..m }, false);
        clnt.call(PMAPPROC_UNSET, &mut |x| Mapping::xdr(x, &mut m), &mut |x| {
            xdr_bool(x, &mut removed)
        })
        .unwrap();
        assert!(removed);
        assert_eq!(
            pmap_getport(&net, 6003, 500_000, 1, IPPROTO_UDP).unwrap_err(),
            RpcError::ProgNotRegistered
        );
    }

    #[test]
    fn duplicate_set_is_refused() {
        let net = Network::new(NetworkConfig::lan(), 21);
        start_portmapper(&net);
        let m = Mapping {
            prog: 1,
            vers: 1,
            prot: IPPROTO_UDP,
            port: 2000,
        };
        assert!(pmap_set(&net, 6000, m).unwrap());
        let m2 = Mapping { port: 3000, ..m };
        assert!(
            !pmap_set(&net, 6000, m2).unwrap(),
            "first registration wins"
        );
        assert_eq!(pmap_getport(&net, 6001, 1, 1, IPPROTO_UDP).unwrap(), 2000);
    }

    #[test]
    fn getport_distinguishes_protocols() {
        let net = Network::new(NetworkConfig::lan(), 21);
        start_portmapper(&net);
        pmap_set(
            &net,
            6000,
            Mapping {
                prog: 9,
                vers: 1,
                prot: IPPROTO_UDP,
                port: 700,
            },
        )
        .unwrap();
        pmap_set(
            &net,
            6000,
            Mapping {
                prog: 9,
                vers: 1,
                prot: IPPROTO_TCP,
                port: 701,
            },
        )
        .unwrap();
        assert_eq!(pmap_getport(&net, 6001, 9, 1, IPPROTO_UDP).unwrap(), 700);
        assert_eq!(pmap_getport(&net, 6002, 9, 1, IPPROTO_TCP).unwrap(), 701);
    }

    #[test]
    fn mapping_xdr_roundtrip() {
        use specrpc_xdr::mem::XdrMem;
        let mut enc = XdrMem::encoder(32);
        let mut m = Mapping {
            prog: 1,
            vers: 2,
            prot: 3,
            port: 4,
        };
        Mapping::xdr(&mut enc, &mut m).unwrap();
        assert_eq!(enc.getpos(), 16);
        let mut dec = XdrMem::decoder(enc.bytes());
        let mut out = Mapping {
            prog: 0,
            vers: 0,
            prot: 0,
            port: 0,
        };
        Mapping::xdr(&mut dec, &mut out).unwrap();
        assert_eq!(out, m);
    }
}
