#!/usr/bin/env python3
"""Print the analytic reference throughputs for all testbed configurations.

Three populations (2, 4, 6 contenders), three rate pairs each, Wi-Fi-only
baseline plus two coexistence cases (class-1 and class-3 LAA with matched
Wi-Fi contention, testbed comparison conventions), and the energy-detector
operating points.
"""
from laacoex import (EdConfig, LaaParams, Scenario, WifiParams,
                     coexistence_throughput, detection_probability,
                     solve_coexistence, wifi_only_throughput)

RATES = [(9.0, 7.8), (18.0, 15.6), (54.0, 70.2)]
CASES = {
    "class-1 (W=4, m=1, TXOP 2ms)": (4, 1, 2000.0),
    "class-3 (W=16, m=2, TXOP 8ms)": (16, 2, 8000.0),
}
POPULATIONS = [(2, 1, 1), (4, 2, 2), (6, 4, 2)]


def main():
    for n_only, n_wifi, n_laa in POPULATIONS:
        print(f"=== {n_only} contenders "
              f"(baseline {n_only} APs; coexistence {n_wifi}+{n_laa}) ===")
        for r_w, r_l in RATES:
            base = wifi_only_throughput(
                n_only, WifiParams(w0=16, m=6, data_rate_mbps=r_w))
            print(f"  r_w={r_w:>4} r_l={r_l:>4}  "
                  f"wifi-only {base.tput_wifi_mbps:6.2f} Mbps")
            for label, (w0, m, txop) in CASES.items():
                s = Scenario(
                    n_wifi=n_wifi, n_laa=n_laa,
                    wifi=WifiParams(w0=w0, m=m, data_rate_mbps=r_w),
                    laa=LaaParams(w0=w0, m=m, txop_us=txop,
                                  data_rate_mbps=r_l),
                    comparison_mode=True)
                rep = coexistence_throughput(s, solve_coexistence(s))
                print(f"      {label}: wifi {rep.tput_wifi_mbps:5.2f}  "
                      f"laa {rep.tput_laa_mbps:6.2f}  "
                      f"total {rep.tput_total_mbps:6.2f}")
    print("=== energy detector (SNR 22 dB, noise -94 dBm, M=680) ===")
    for threshold in (-62.0, -72.0, -82.0):
        p_d = detection_probability(
            EdConfig.from_snr(threshold, 22.0, -94.0, 680))
        print(f"  threshold {threshold:+6.1f} dBm -> P_d = {p_d:.4f}")


if __name__ == "__main__":
    main()
