//! An NFS-like file service over the RPC substrate — the paper motivates
//! Sun RPC by NFS and NIS, so this example shows the protocol stack
//! (portmapper, TCP record marking, strings/opaque data) carrying a
//! realistic service. Variable-length names and file contents stay on
//! the generic path, exactly as the paper's §6.3 scoping suggests — but
//! the fixed-shape `STATFS` procedure *is* specializable, so it rides
//! the `SpecService`/`SpecClient` fast path over the same record-marked
//! TCP connection, demonstrating the transport-agnostic facade on a
//! mixed generic/specialized program. The second half runs the
//! open-loop NFS-like scenario (`specrpc::run_nfs`): zipf-popular file
//! handles, a mixed LOOKUP/READ/GETATTR workload, and one-way WRITE
//! bursts sealed by sync COMMITs — A/B'd coalesced vs
//! one-datagram-per-call over a link with an honest per-packet cost.
//!
//! ```text
//! cargo run --example nfs_like
//! ```

use specrpc::{run_nfs, NfsConfig, PathUsed, ProcPipeline, SpecClient, SpecService};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_rpc::clnt_tcp::ClntTcp;
use specrpc_rpc::pmap::{self, Mapping, IPPROTO_TCP};
use specrpc_rpc::svc::SvcRegistry;
use specrpc_rpc::svc_tcp::serve_tcp;
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::composite::{xdr_bytes, xdr_string};
use specrpc_xdr::primitives::{xdr_int, xdr_u_int};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

const NFS_PROG: u32 = 100_003;
const NFS_VERS: u32 = 2;
const PROC_LOOKUP: u32 = 4;
const PROC_READ: u32 = 6;
const PROC_WRITE: u32 = 8;
const PROC_STATFS: u32 = 17;
const NFS_PORT: u32 = 2049;

/// The fixed-shape corner of the protocol: `STATFS(fhandle)` returns
/// five integers. Fixed shapes are exactly what Tempo specializes.
const STATFS_IDL: &str = r#"
    struct fhandle_arg { int handle; };
    struct statfs_res {
        int tsize;
        int bsize;
        int blocks;
        int bfree;
        int bavail;
    };
    program NFS_PROGRAM {
        version NFS_V2 {
            statfs_res STATFS(fhandle_arg) = 17;
        } = 2;
    } = 100003;
"#;

/// The in-memory "filesystem": file handle -> (name, contents).
type FileTable = Arc<Mutex<HashMap<u32, (String, Vec<u8>)>>>;

fn main() {
    println!("== NFS-like service over the Sun RPC substrate ==\n");
    let net = Network::new(NetworkConfig::lan(), 99);

    // 1. Portmapper up, service registered.
    pmap::start_portmapper(&net);
    let files: FileTable = Arc::new(Mutex::new(
        [
            (1u32, ("README".to_string(), b"specialized RPC".to_vec())),
            (2, ("paper.ps".to_string(), vec![0x25, 0x21])),
        ]
        .into_iter()
        .collect(),
    ));

    let mut reg = SvcRegistry::new();
    // LOOKUP(name) -> fhandle (0 = not found)
    let f = files.clone();
    reg.register(NFS_PROG, NFS_VERS, PROC_LOOKUP, move |_, args, results| {
        let mut name = String::new();
        xdr_string(args, &mut name, 255)?;
        let mut handle = f
            .lock()
            .unwrap()
            .iter()
            .find(|(_, (n, _))| *n == name)
            .map(|(h, _)| *h)
            .unwrap_or(0);
        xdr_u_int(results, &mut handle)?;
        Ok(())
    });
    // READ(fhandle, offset, count) -> opaque<>
    let f = files.clone();
    reg.register(NFS_PROG, NFS_VERS, PROC_READ, move |_, args, results| {
        let (mut h, mut off, mut cnt) = (0u32, 0u32, 0u32);
        xdr_u_int(args, &mut h)?;
        xdr_u_int(args, &mut off)?;
        xdr_u_int(args, &mut cnt)?;
        let store = f.lock().unwrap();
        let data = store
            .get(&h)
            .map(|(_, d)| {
                let start = (off as usize).min(d.len());
                let end = (start + cnt as usize).min(d.len());
                d[start..end].to_vec()
            })
            .unwrap_or_default();
        let mut out = data;
        xdr_bytes(results, &mut out, 8192)?;
        Ok(())
    });
    // WRITE(fhandle, data) -> new size
    let f = files.clone();
    reg.register(NFS_PROG, NFS_VERS, PROC_WRITE, move |_, args, results| {
        let mut h = 0u32;
        xdr_u_int(args, &mut h)?;
        let mut data = Vec::new();
        xdr_bytes(args, &mut data, 8192)?;
        let mut store = f.lock().unwrap();
        let mut size = 0i32;
        if let Some((_, contents)) = store.get_mut(&h) {
            contents.extend_from_slice(&data);
            size = contents.len() as i32;
        }
        xdr_int(results, &mut size)?;
        Ok(())
    });
    // STATFS: fixed shape → specialized fast path, same registry, same
    // TCP transport (guard fallback keeps generic clients working too).
    let statfs_stubs = ProcPipeline::new(0)
        .build_from_idl(STATFS_IDL, None, PROC_STATFS)
        .map(Arc::new)
        .expect("statfs pipeline");
    let f = files.clone();
    SpecService::new()
        .proc(statfs_stubs.clone(), move |_args: &StubArgs| {
            let total: i32 = f
                .lock()
                .unwrap()
                .values()
                .map(|(_, d)| d.len() as i32)
                .sum();
            // tsize, bsize, blocks, bfree, bavail (modeled numbers).
            StubArgs::new(vec![8192, 512, 4096, 4096 - total / 512, 4000], vec![])
        })
        .install(&mut reg);

    serve_tcp(&net, NFS_PORT, Arc::new(reg));
    pmap::pmap_set(
        &net,
        5900,
        Mapping {
            prog: NFS_PROG,
            vers: NFS_VERS,
            prot: IPPROTO_TCP,
            port: NFS_PORT,
        },
    )
    .expect("pmap_set");

    // 2. Client: discover the port, mount-less lookup/read/write.
    let port =
        pmap::pmap_getport(&net, 5901, NFS_PROG, NFS_VERS, IPPROTO_TCP).expect("portmapper lookup");
    println!("portmapper: nfs at tcp port {port}");
    let mut clnt = ClntTcp::create(&net, port, NFS_PROG, NFS_VERS).expect("connect");

    let mut handle = 0u32;
    clnt.call(
        PROC_LOOKUP,
        &mut |x| {
            let mut name = String::from("README");
            xdr_string(x, &mut name, 255)
        },
        &mut |x| xdr_u_int(x, &mut handle),
    )
    .expect("LOOKUP");
    println!("LOOKUP(\"README\") -> fhandle {handle}");

    let mut contents = Vec::new();
    clnt.call(
        PROC_READ,
        &mut |x| {
            let (mut h, mut off, mut cnt) = (handle, 0u32, 64u32);
            xdr_u_int(x, &mut h)?;
            xdr_u_int(x, &mut off)?;
            xdr_u_int(x, &mut cnt)
        },
        &mut |x| xdr_bytes(x, &mut contents, 8192),
    )
    .expect("READ");
    println!(
        "READ(fh {handle}) -> {:?}",
        String::from_utf8_lossy(&contents)
    );

    let mut new_size = 0i32;
    clnt.call(
        PROC_WRITE,
        &mut |x| {
            let mut h = handle;
            xdr_u_int(x, &mut h)?;
            let mut data = b" + automatic specialization".to_vec();
            xdr_bytes(x, &mut data, 8192)
        },
        &mut |x| xdr_int(x, &mut new_size),
    )
    .expect("WRITE");
    println!("WRITE(fh {handle}) -> size {new_size}");

    let mut reread = Vec::new();
    clnt.call(
        PROC_READ,
        &mut |x| {
            let (mut h, mut off, mut cnt) = (handle, 0u32, 128u32);
            xdr_u_int(x, &mut h)?;
            xdr_u_int(x, &mut off)?;
            xdr_u_int(x, &mut cnt)
        },
        &mut |x| xdr_bytes(x, &mut reread, 8192),
    )
    .expect("READ");
    println!(
        "READ(fh {handle}) -> {:?}",
        String::from_utf8_lossy(&reread)
    );
    assert!(String::from_utf8_lossy(&reread).contains("specialization"));

    // 3. The fixed-shape procedure goes through the specialized client —
    //    over the same record-marked TCP transport, via the Transport
    //    trait.
    let tcp = ClntTcp::create(&net, port, NFS_PROG, NFS_VERS).expect("connect statfs");
    let mut statfs = SpecClient::from_parts(tcp, statfs_stubs);
    let args = statfs.args(vec![handle as i32], vec![]);
    let (out, path) = statfs.call(&args).expect("STATFS");
    assert_eq!(path, PathUsed::Fast);
    let res = &out.scalars[out.scalars.len() - 5..];
    println!(
        "STATFS(fh {handle}) -> tsize {} bsize {} blocks {} bfree {} bavail {} (path: {path:?})",
        res[0], res[1], res[2], res[3], res[4]
    );

    println!("\n(variable-length data rides the generic path; fixed-shape");
    println!(" procedures ride the specialized fast path — both over one");
    println!(" TCP connection type, via the Transport trait)");

    // 4. The open-loop NFS-like scenario: zipf-popular file handles, a
    //    mixed GETATTR/LOOKUP/READ workload, and one-way WRITE bursts
    //    sealed by sync COMMITs — over UDP with an honest per-packet
    //    cost, coalesced vs one-datagram-per-call.
    println!("\n== NFS-like mixed-procedure scenario (coalescing A/B) ==\n");
    let cfg = NfsConfig::smoke();
    let coalesced = run_nfs(&cfg).expect("coalesced run");
    let plain = run_nfs(&cfg.clone().per_call()).expect("per-call run");

    println!(
        "-- coalesced (MTU {} B, Sun-style one-way batching) --",
        cfg.policy.mtu
    );
    println!("{}", coalesced.render());
    println!("\n-- per-call baseline (one datagram per call) --");
    println!("{}", plain.render());

    let saved = plain.link.datagrams - coalesced.link.datagrams;
    let win = 100.0
        * (plain.amortized_per_op().as_nanos() - coalesced.amortized_per_op().as_nanos()) as f64
        / plain.amortized_per_op().as_nanos() as f64;
    println!(
        "\ncoalescing saved {saved} datagram(s) across {} one-way write(s): \
         {} vs {} amortized per op ({win:.1}% faster)",
        coalesced.oneway_writes,
        coalesced.amortized_per_op(),
        plain.amortized_per_op(),
    );
    assert!(saved > 0 && coalesced.elapsed < plain.elapsed);
}
