"""Print the main rate/radius trade-off curves as small tables."""

from insdel.bounds import (
    ZyablovQuery,
    gv_lower_rate,
    large_q_rate,
    random_rate_tau_binary,
    random_rate_tau_q3,
    zyablov_tau,
)

print("random codes, worst-case split over gamma + kappa = tau (eps = 0.01)")
print(f"{'tau':>6}  {'rate q=3':>9}  {'rate q=2':>9}")
for tau in (0.3 * i / 6 for i in range(7)):
    r3 = random_rate_tau_q3(3, tau, 0.01).rate
    r2 = random_rate_tau_binary(tau, 0.01).rate
    print(f"{tau:6.2f}  {r3:9.4f}  {r2:9.4f}")

print()
print("existence floor vs the distance ceiling (q = 2)")
print(f"{'delta':>6}  {'gv':>8}  {'1-delta':>8}")
for delta in (0.05, 0.1, 0.2, 0.3):
    print(f"{delta:6.2f}  {gv_lower_rate(2, delta):8.4f}  {1 - delta:8.4f}")

print()
point = zyablov_tau(ZyablovQuery(q=2, R=0.5, epsilon=0.01))
print(f"concatenation at overall rate 1/2 (q=2, eps=0.01): tau = {point.tau:.4f}")
print(f"huge alphabets approach rate 1 - kappa: {large_q_rate(0.1, 0.01).rate:.2f}")
