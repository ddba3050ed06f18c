//! DV-W010 negative: waiting goes through virtual time. `ctx.park()` is
//! the sim's own descheduling call, not `std::thread::park`.
use dv_sim::SimCtx;

fn wait_for_data(ctx: &SimCtx) {
    ctx.park();
    ctx.delay(5);
    ctx.wait_until(ctx.now() + 5);
}
