//! Regenerates Table 1: the design parameters of the substrate.

use ohmflow::SubstrateParams;

fn main() {
    let p = SubstrateParams::table1();
    println!("Table 1: Design parameters for the max-flow computing substrate");
    println!("{:-<64}", "");
    println!(
        "{:<48}{:>14}",
        "Memristor LRS resistance (kΩ)",
        p.memristor.r_lrs / 1e3
    );
    println!(
        "{:<48}{:>14}",
        "Memristor HRS resistance (kΩ)",
        p.memristor.r_hrs / 1e3
    );
    println!(
        "{:<48}{:>14}",
        "Objective function voltage Vflow (V)", p.v_flow
    );
    println!("{:<48}{:>14.0e}", "Open loop gain of op-amp", p.opamp.gain);
    println!(
        "{:<48}{:>14}",
        "Gain-bandwidth product of op-amp (GHz)", "10 to 50"
    );
    println!(
        "{:<48}{:>14}",
        "Number of columns in the crossbar", p.crossbar_dim
    );
    println!(
        "{:<48}{:>14}",
        "Number of rows in the crossbar", p.crossbar_dim
    );
    println!("{:<48}{:>14}", "Number of voltage levels", p.voltage_levels);
    println!("{:<48}{:>14}", "Parasitic capacitance per net (fF)", 20);
}
