"""Print the first few nested-bracket generator candidates and test their
membership in the truncated quotients where they are expected to matter."""

from picolim.presentations import render_brackets, render_word
from picolim.words import hopf, hopf_element
from picolim.wu import WuConfiguration, letter_names, membership_check

for k in range(1, 5):
    print(f"h({k}) = {render_brackets(hopf(k)[1], letter_names(k + 1))}")
print()

for n, c in ((2, 3), (2, 4)):
    cfg = WuConfiguration(n, c)
    h = hopf_element(1)
    out = membership_check(h, cfg)
    print(f"(n={n}, c={c}) {render_word(h, cfg.names)}: in numerator {out['in_numerator']}, "
          f"in denominator {out['in_denominator']}, order {out['order_in_quotient']}")

cfg = WuConfiguration(3, 5)
h = hopf_element(2)
for label, w in (("h(2)", h), ("h(2)^2", h * h)):
    out = membership_check(w, cfg)
    print(f"(n=3, c=5) {label}: in numerator {out['in_numerator']}, "
          f"in denominator {out['in_denominator']}, order {out['order_in_quotient']}")
