//! Quickstart: the paper's introductory `rmin` example — a remote
//! procedure taking two integers and returning their minimum — called
//! first through the generic Sun path, then through Tempo-specialized
//! stubs built with the `SpecClient`/`SpecService` facade, over the
//! simulated network.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use specrpc::{PathUsed, ProcPipeline, SpecClient, SpecService, StubCache};
use specrpc_netsim::net::{Network, NetworkConfig};
use specrpc_rpc::ClntUdp;
use specrpc_tempo::compile::StubArgs;
use specrpc_xdr::primitives::xdr_int;
use std::sync::Arc;

/// The interface definition the paper's §2 example would feed rpcgen.
const RMIN_IDL: &str = r#"
    struct pair {
        int int1;
        int int2;
    };

    program RMINPROG {
        version RMINVERS {
            int RMIN(pair) = 1;
        } = 1;
    } = 0x20000100;
"#;

const PORT: u32 = 3100;

fn main() {
    println!("== rmin quickstart: generic vs specialized Sun RPC ==\n");

    // 1. rpcgen → Tempo pipeline, through the shape-keyed cache: all
    //    four stubs for RMIN, compiled exactly once no matter how many
    //    clients and services ask for this context.
    let cache = Arc::new(StubCache::new());
    let pipeline = ProcPipeline::new(0);
    let proc_ = cache
        .get_or_compile_idl(&pipeline, RMIN_IDL, None, 1)
        .expect("pipeline");
    println!(
        "specialized stubs compiled: encode {} ops / decode {} ops (request {} bytes)",
        proc_.client_encode.program.len(),
        proc_.client_decode.program.len(),
        proc_.client_encode.wire_len,
    );

    // 2. Deploy the service (fast + generic paths share one registry).
    let net = Network::new(NetworkConfig::lan(), 1);
    SpecService::new()
        .proc(proc_.clone(), |args: &StubArgs| {
            // The last two scalar slots are int1, int2 (after header
            // scratch).
            let ints = &args.scalars[args.scalars.len() - 2..];
            StubArgs::new(vec![ints[0].min(ints[1])], vec![])
        })
        .serve_udp(&net, PORT);

    // 3. Generic call: the Figure 1 layered chain.
    println!("\n-- generic call (the paper's Figure 1 chain) --");
    println!("  rmin(&arg)");
    println!("    clnt_call -> clntudp_call");
    println!("      XDR_PUTLONG(&proc) -> xdrmem_putlong -> htonl");
    println!(
        "      xdr_pair -> xdr_int -> xdr_long -> XDR_PUTLONG -> xdrmem_putlong -> htonl  (x2)"
    );
    let mut generic = ClntUdp::create(&net, 5001, PORT, 0x2000_0100, 1);
    let mut result = 0i32;
    generic
        .call(
            1,
            &mut |x| {
                let (mut a, mut b) = (42, 7);
                xdr_int(x, &mut a)?;
                xdr_int(x, &mut b)
            },
            &mut |x| xdr_int(x, &mut result),
        )
        .expect("generic rmin");
    println!("  rmin(42, 7) = {result}");
    println!(
        "  generic marshaling paid: {} dispatches, {} overflow checks, {} layer calls",
        generic.counts.dispatches, generic.counts.overflow_checks, generic.counts.layer_calls
    );

    // 4. Specialized call: the client resolves the same context through
    //    the cache (a hit — no second Tempo run), wraps the UDP
    //    transport, and runs the compiled residual stubs.
    println!("\n-- specialized call (Figure 5 residual, compiled) --");
    let stubs = cache
        .get_or_compile_idl(&pipeline, RMIN_IDL, None, 1)
        .expect("cached stubs");
    let mut spec = SpecClient::from_parts(ClntUdp::create(&net, 5002, PORT, 0x2000_0100, 1), stubs);
    let args = spec.args(vec![42, 7], vec![]);
    let (out, path) = spec.call(&args).expect("fast rmin");
    assert_eq!(path, PathUsed::Fast);
    println!("  rmin(42, 7) = {} (path: {path:?})", out.scalars[6]);
    println!(
        "  specialized marshaling paid: {} stub ops, 0 dispatches, 0 overflow checks",
        spec.counts.stub_ops
    );
    let stats = cache.stats();
    println!(
        "  stub cache: {} miss (the compile), {} hit (this client)",
        stats.misses, stats.hits
    );

    println!("\nBoth paths produce identical wire messages; the specialized one");
    println!("skips every interpretive step the paper's Section 3 identifies.");
}
